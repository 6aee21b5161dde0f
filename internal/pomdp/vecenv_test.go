package pomdp

import (
	"math"
	"math/rand"
	"testing"

	"vtmig/internal/channel"
	"vtmig/internal/rl"
	"vtmig/internal/stackelberg"
)

// randomGame draws a valid randomized Stackelberg game: 1–5 followers
// with random immersion coefficients and data sizes, random cost, and a
// randomly slack or binding capacity.
func randomGame(t *testing.T, rng *rand.Rand) *stackelberg.Game {
	t.Helper()
	n := 1 + rng.Intn(5)
	vmus := make([]stackelberg.VMU, n)
	for i := range vmus {
		vmus[i] = stackelberg.VMU{
			ID:       i,
			Alpha:    5 + rng.Float64()*15,
			DataSize: 0.5 + rng.Float64()*2.5,
		}
	}
	bmax := 0.0
	if rng.Intn(2) == 0 {
		bmax = 0.2 + rng.Float64()*0.8
	}
	g, err := stackelberg.NewGame(vmus, channel.DefaultParams(), 4+rng.Float64()*4, 50, bmax)
	if err != nil {
		t.Fatalf("randomized game invalid: %v", err)
	}
	return g
}

// TestVecEnvInstanceZeroMatchesClassic pins that instance 0 of a
// vectorized environment keeps the base seed: its episode stream is
// bit-identical to the classic single environment's.
func TestVecEnvInstanceZeroMatchesClassic(t *testing.T) {
	cfg := Config{
		Game:       stackelberg.DefaultGame(),
		HistoryLen: 4,
		Rounds:     20,
		Reward:     RewardBinary,
		Seed:       7,
	}
	vec, err := NewVecEnv(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	classic, err := NewGameEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v0 := vec.EnvAt(0)
	a, b := classic.Reset(), v0.Reset()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("initial obs element %d: %v vs %v", i, a[i], b[i])
		}
	}
	act := []float64{12.5}
	for k := 0; k < 20; k++ {
		ao, ar, ad := classic.Step(act)
		bo, br, bd := v0.Step(act)
		if ar != br || ad != bd {
			t.Fatalf("round %d: reward/done (%v, %v) vs (%v, %v)", k, ar, ad, br, bd)
		}
		for i := range ao {
			if math.Float64bits(ao[i]) != math.Float64bits(bo[i]) {
				t.Fatalf("round %d obs element %d: %v vs %v", k, i, ao[i], bo[i])
			}
		}
	}
}

// TestVecEnvInstancesIndependentlySeeded checks that distinct instances
// start from distinct initial histories.
func TestVecEnvInstancesIndependentlySeeded(t *testing.T) {
	cfg := Config{
		Game:       stackelberg.DefaultGame(),
		HistoryLen: 4,
		Rounds:     10,
		Reward:     RewardBinary,
		Seed:       1,
	}
	vec, err := NewVecEnv(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := append([]float64(nil), vec.EnvAt(0).Reset()...)
	b := vec.EnvAt(1).Reset()
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("instances 0 and 1 produced identical initial observations")
	}
	if VecSeed(1, 0) != 1 {
		t.Fatalf("VecSeed(1, 0) = %d, want 1", VecSeed(1, 0))
	}
	if VecSeed(1, 1) == VecSeed(1, 0) {
		t.Fatal("VecSeed collision between instances")
	}
}

// TestNewVecEnvErrors propagates configuration errors.
func TestNewVecEnvErrors(t *testing.T) {
	if _, err := NewVecEnv(Config{}, 2); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := NewVecEnv(Config{Game: stackelberg.DefaultGame(), HistoryLen: 4, Rounds: 10, Reward: RewardBinary}, 0); err == nil {
		t.Fatal("zero instances accepted")
	}
}

// trainVec runs a short vectorized training on the real POMDP and returns
// the agent and per-episode returns.
func trainVec(t *testing.T, game *stackelberg.Game, seed int64, envs, workers int) (*rl.PPO, []float64) {
	t.Helper()
	vec, err := NewVecEnv(Config{
		Game:       game,
		HistoryLen: 3,
		Rounds:     30,
		Reward:     RewardBinary,
		Seed:       seed,
	}, envs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := rl.DefaultPPOConfig()
	cfg.Seed = seed
	cfg.MiniBatch = 10
	lo, hi := vec.ActionBounds()
	agent := rl.NewPPO(vec.ObsDim(), vec.ActDim(), lo, hi, cfg)
	trainer := rl.NewVecTrainer(vec, agent, rl.TrainerConfig{
		Episodes:         4,
		RoundsPerEpisode: 30,
		UpdateEvery:      10,
		CollectWorkers:   workers,
	})
	stats := trainer.Run()
	returns := make([]float64, len(stats))
	for i, s := range stats {
		returns[i] = s.Return
	}
	return agent, returns
}

// TestVecCollectTrainingBitIdenticalOnRandomGames extends the rule-4
// worker-invariance tests to the real POMDP: on randomized games, a
// vectorized training run must reproduce the serial-collection
// (workers=1) run's weights and episode returns bit for bit, for worker
// counts above the host core count included.
func TestVecCollectTrainingBitIdenticalOnRandomGames(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 4; trial++ {
		game := randomGame(t, rng)
		seed := int64(2000 + trial)
		workers := []int{2, 3, 7}[trial%3]

		serial, serialRet := trainVec(t, game, seed, 2, 1)
		parallel, parallelRet := trainVec(t, game, seed, 2, workers)

		for i := range serialRet {
			if math.Float64bits(serialRet[i]) != math.Float64bits(parallelRet[i]) {
				t.Fatalf("trial %d (N=%d, workers=%d): episode %d return %v vs %v",
					trial, game.N(), workers, i, serialRet[i], parallelRet[i])
			}
		}
		sp, pp := serial.Params(), parallel.Params()
		for i := range sp {
			for j := range sp[i].Value {
				if math.Float64bits(sp[i].Value[j]) != math.Float64bits(pp[i].Value[j]) {
					t.Fatalf("trial %d (N=%d, workers=%d): param %q element %d: %v vs %v",
						trial, game.N(), workers, sp[i].Name, j, sp[i].Value[j], pp[i].Value[j])
				}
			}
		}
	}
}
