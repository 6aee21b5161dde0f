package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"vtmig/internal/baselines"
	"vtmig/internal/experiments"
	"vtmig/internal/mathx"
	"vtmig/internal/pomdp"
	"vtmig/internal/rl"
	"vtmig/internal/stackelberg"
)

// The train-figs workload regenerates Fig. 2 and the Fig. 3 cost sweep
// (experiments.RunFig2 and experiments.RunCostSweep) at a reduced episode
// budget. The first repetition trains at the figures' default seed and
// must reproduce the digest committed in testdata; it also warms the
// process up and is not timed. Later repetitions train at the run's seed
// and must reproduce the first seeded digest. The traced pass rebuilds
// the same training from the packages' public pieces with the
// environment wrapped, and must reproduce the untraced digest.

// sweepCosts are the Fig. 3(a)/(b) transmission costs.
var sweepCosts = []float64{5, 6, 7, 8, 9}

// trainDigests holds "episodes=<E> seed=<S> <digest>" lines.
//
//go:embed testdata/train_digests.txt
var trainDigests string

func trainConfig(episodes int, seed int64) experiments.DRLConfig {
	cfg := experiments.DefaultDRLConfig()
	cfg.Episodes = episodes
	cfg.Seed = seed
	return cfg
}

// tablesDigest hashes the numeric cells of the figure tables at full
// precision.
func tablesDigest(tables ...*experiments.Table) string {
	h := sha256.New()
	for _, t := range tables {
		for _, row := range t.Rows {
			for _, v := range row {
				h.Write([]byte(strconv.FormatFloat(v, 'g', -1, 64) + ","))
			}
			h.Write([]byte("\n"))
		}
		h.Write([]byte("--\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// regenerate runs the two figure entry points and returns their digest.
func regenerate(cfg experiments.DRLConfig) (string, error) {
	f2, err := experiments.RunFig2(stackelberg.DefaultGame(), cfg)
	if err != nil {
		return "", err
	}
	sweep, err := experiments.RunCostSweep(sweepCosts, cfg)
	if err != nil {
		return "", err
	}
	if err := checkSweep(sweep.Fig3a); err != nil {
		return "", err
	}
	return tablesDigest(append(f2.Tables(), sweep.Fig3a, sweep.Fig3b)...), nil
}

// checkSweep checks that every DRL and equilibrium price of Fig. 3(a)
// lies in the game's [Cost, PMax].
func checkSweep(t *experiments.Table) error {
	pmax := stackelberg.DefaultGame().PMax
	for _, row := range t.Rows {
		for _, p := range row[1:3] {
			if p < row[0] || p > pmax {
				return fmt.Errorf("fig3a price %v outside [%g, %g]", p, row[0], pmax)
			}
		}
	}
	return nil
}

// episodesPerRegen is how many training episodes one regeneration runs:
// Fig. 2's agent plus every restart of every sweep point.
func episodesPerRegen(cfg experiments.DRLConfig) int {
	return cfg.Episodes * (1 + len(sweepCosts)*max(cfg.Restarts, 1))
}

// setupTrainer builds Fig. 2's environments, learner and trainer: the
// set-up RunFig2 does before its first episode.
func setupTrainer(cfg experiments.DRLConfig) error {
	game := stackelberg.DefaultGame()
	var env *pomdp.GameEnv
	for _, seed := range []int64{cfg.Seed + 1, cfg.Seed} { // evaluation env, then training env
		e, err := pomdp.NewGameEnv(pomdp.Config{Game: game, HistoryLen: cfg.HistoryLen, Rounds: cfg.Rounds, Reward: cfg.Reward, Seed: seed})
		if err != nil {
			return err
		}
		env = e
	}
	ppo := cfg.PPO
	ppo.Seed = cfg.Seed
	lo, hi := env.ActionBounds()
	agent := rl.NewPPO(env.ObsDim(), env.ActDim(), lo, hi, ppo)
	rl.NewTrainer(env, agent, rl.TrainerConfig{Episodes: cfg.Episodes, RoundsPerEpisode: cfg.Rounds, UpdateEvery: cfg.UpdateEvery})
	return nil
}

func runTrain(b *bench) (*report, error) {
	var r report
	ref := trainConfig(b.sz.trainEpisodes, 1)
	got, err := regenerate(ref)
	if err != nil {
		return nil, err
	}
	r.attempted++
	key := fmt.Sprintf("episodes=%d seed=%d ", ref.Episodes, ref.Seed)
	want := ""
	for _, line := range strings.Split(trainDigests, "\n") {
		if d, ok := strings.CutPrefix(line, key); ok {
			want = strings.TrimSpace(d)
		}
	}
	if want == "" || got != want {
		return nil, fmt.Errorf("figure tables at %sdigest %s, testdata/train_digests.txt has %q", key, got, want)
	}
	b.logf("rep 0: figure tables at %smatch the committed digest", key)

	cfg := trainConfig(b.sz.trainEpisodes, b.seed)
	var setup []float64
	// Building the trainer takes microseconds, so it repeats more often
	// than the other workloads' set-ups.
	for k := 0; k < 5*b.sz.setups; k++ {
		t0 := time.Now()
		if err := setupTrainer(cfg); err != nil {
			return nil, err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	share := 1.0
	if b.trace {
		share = 0.4
	}
	var regen, stolen []float64
	var seeded string
	for len(regen) < 2 || time.Now().Before(b.deadline(share)) {
		t0, clock := time.Now(), startSteal()
		d, err := regenerate(cfg)
		if err != nil {
			return nil, err
		}
		regen = append(regen, time.Since(t0).Seconds())
		stolen = append(stolen, clock.share())
		r.attempted++
		if seeded == "" {
			seeded = d
		} else if d != seeded {
			return nil, fmt.Errorf("train-figs repetition %d produced different tables from the first", len(regen))
		}
	}
	trainS := calmMedian(regen, stolen)
	r.addE2E("setup_s", "s", median(setup), len(setup))
	r.addE2E("p50_ms", "ms", 1e3*trainS, len(calm(stolen)))
	b.logf("train_s %.6g s, slowest %.6g s, %.6g episodes/s (median of %d calm regenerations of %d, %d episodes each)",
		trainS, quantile(regen, 1), float64(episodesPerRegen(cfg))/trainS, len(calm(stolen)), len(regen), episodesPerRegen(cfg))
	if !b.trace {
		return &r, nil
	}

	var tracedS, tracedStolen []float64
	for len(tracedS) < 1 || time.Now().Before(b.deadline(1)) {
		t0, clock := time.Now(), startSteal()
		d, err := tracedRegenerate(cfg, b.tr)
		if err != nil {
			return nil, err
		}
		tracedS = append(tracedS, time.Since(t0).Seconds())
		tracedStolen = append(tracedStolen, clock.share())
		r.attempted++
		if d != seeded {
			return nil, fmt.Errorf("the traced training produced different tables from the untraced one")
		}
	}
	tracedTrainS := calmMedian(tracedS, tracedStolen)
	r.addLayer("trace.overhead_pct", "%", 100*(tracedTrainS-trainS)/trainS, 0)
	b.logf("tracing overhead: regeneration %.4g s traced vs %.4g s untraced", tracedTrainS, trainS)
	r.addLayer("trace.unexplained_pct", "%", b.tr.unexplained("train.agent"), 0)
	policy := b.tr.durations("rl.policy_gap", time.Microsecond)
	update := b.tr.durations("rl.update_gap", time.Millisecond)
	episode := episodeGaps(b.tr)
	r.addLayer("rl.update_ms", "ms", median(update)-median(policy)/1e3, len(update))
	r.addLayer("rl.policy_us", "us", median(policy), len(policy))
	r.addLayer("rl.episode_ms", "ms", median(episode), len(episode))
	step := b.tr.durations("pomdp.env_step", time.Microsecond)
	r.addLayer("pomdp.env_step_us", "us", median(step), len(step))
	return &r, nil
}

// episodeGaps returns the times between consecutive OnEpisode calls of
// each trained agent, in ms.
func episodeGaps(tr *tracer) []float64 {
	last := map[int64]int64{}
	var gaps []float64
	for _, s := range tr.named("rl.on_episode") {
		if prev, ok := last[s.Parent]; ok {
			gaps = append(gaps, float64(s.End-prev)/1e6)
		}
		last[s.Parent] = s.End
	}
	return gaps
}

// tracedEnv wraps the pomdp environment handed to rl.NewTrainer. Each
// Step is a span; the gap between two Steps of an episode is the
// trainer's own time (policy forward and sample, plus a PPO update after
// every UpdateEvery-th step).
type tracedEnv struct {
	*pomdp.GameEnv
	tr          *tracer
	root        int64
	updateEvery int
	k           int
	last        time.Time
}

func (e *tracedEnv) Reset() []float64 {
	e.k, e.last = 0, time.Time{}
	return e.GameEnv.Reset()
}

func (e *tracedEnv) Step(action []float64) ([]float64, float64, bool) {
	t0 := time.Now()
	if !e.last.IsZero() {
		name := "rl.policy_gap"
		if e.k%e.updateEvery == 0 {
			name = "rl.update_gap"
		}
		e.tr.leaf(name, e.root, 0, e.last, t0, 0)
	}
	obs, reward, done := e.GameEnv.Step(action)
	t1 := time.Now()
	e.tr.leaf("pomdp.env_step", e.root, 0, t0, t1, 0)
	e.k++
	e.last = t1
	return obs, reward, done
}

// trainTraced trains one agent the way the experiments package does,
// through the traced environment; onEpisode runs after each episode.
func trainTraced(game *stackelberg.Game, cfg experiments.DRLConfig, tr *tracer, onEpisode func(*rl.PPO, rl.EpisodeStats)) (*rl.PPO, *pomdp.GameEnv, error) {
	env, err := pomdp.NewGameEnv(pomdp.Config{Game: game, HistoryLen: cfg.HistoryLen, Rounds: cfg.Rounds, Reward: cfg.Reward, Seed: cfg.Seed})
	if err != nil {
		return nil, nil, err
	}
	root := tr.id()
	t0 := time.Now()
	ppo := cfg.PPO
	ppo.Seed = cfg.Seed
	lo, hi := env.ActionBounds()
	agent := rl.NewPPO(env.ObsDim(), env.ActDim(), lo, hi, ppo)
	wrapped := &tracedEnv{GameEnv: env, tr: tr, root: root, updateEvery: cfg.UpdateEvery}
	trainer := rl.NewTrainer(wrapped, agent, rl.TrainerConfig{
		Episodes: cfg.Episodes, RoundsPerEpisode: cfg.Rounds, UpdateEvery: cfg.UpdateEvery, CollectWorkers: cfg.CollectWorkers,
	})
	trainer.OnEpisode = func(s rl.EpisodeStats) bool {
		e0 := time.Now()
		if !wrapped.last.IsZero() { // the episode-end optimization phase
			tr.leaf("rl.update_gap", root, 0, wrapped.last, e0, 0)
		}
		if onEpisode != nil {
			onEpisode(agent, s)
		}
		tr.leaf("rl.on_episode", root, 0, e0, time.Now(), 0)
		wrapped.last = time.Time{}
		return true
	}
	trainer.Run()
	tr.add(root, "train.agent", 0, 0, t0, time.Now(), 0)
	return agent, env, nil
}

// tracedRegenerate rebuilds Fig. 2 and the cost sweep through
// trainTraced and returns the tables' digest.
func tracedRegenerate(cfg experiments.DRLConfig, tr *tracer) (string, error) {
	game := stackelberg.DefaultGame()
	evalEnv, err := pomdp.NewGameEnv(pomdp.Config{Game: game, HistoryLen: cfg.HistoryLen, Rounds: cfg.Rounds, Reward: cfg.Reward, Seed: cfg.Seed + 1})
	if err != nil {
		return "", err
	}
	fig2 := &experiments.Fig2Result{
		Return:        &experiments.Series{Name: "return"},
		Utility:       &experiments.Series{Name: "drl_Us"},
		OracleUtility: game.Solve().MSPUtility,
	}
	var scratch stackelberg.EvalScratch
	if _, _, err := trainTraced(game, cfg, tr, func(agent *rl.PPO, s rl.EpisodeStats) {
		fig2.Return.Append(float64(s.Episode), s.Return)
		price := experiments.EvaluateAgent(evalEnv, agent, cfg.HistoryLen+2)
		fig2.Utility.Append(float64(s.Episode), game.EvaluateInto(&scratch, price).MSPUtility)
	}); err != nil {
		return "", err
	}

	fig3a := &experiments.Table{Columns: make([]string, 7)}
	fig3b := &experiments.Table{Columns: make([]string, 5)}
	type point struct {
		drl, eq        stackelberg.Equilibrium
		greedy, random float64
	}
	points := make([]point, len(sweepCosts))
	pool := experiments.NewWorkerPool(0)
	err = pool.Run(context.Background(), len(sweepCosts), func(ctx context.Context, i int) error {
		g := stackelberg.DefaultGame()
		g.Cost = sweepCosts[i]
		restarts := max(cfg.Restarts, 1)
		evals := make([]stackelberg.Equilibrium, restarts)
		var mu sync.Mutex
		err := pool.Run(ctx, restarts, func(ctx context.Context, k int) error {
			c := cfg
			c.Seed = cfg.Seed + int64(k)
			agent, env, err := trainTraced(g, c, tr, nil)
			if err != nil {
				return err
			}
			eval := g.Evaluate(experiments.EvaluateAgent(env, agent, 20))
			mu.Lock()
			evals[k] = eval
			mu.Unlock()
			return nil
		})
		if err != nil {
			return err
		}
		best := 0
		for k := range evals {
			if evals[k].MSPUtility > evals[best].MSPUtility {
				best = k
			}
		}
		points[i] = point{drl: evals[best], eq: g.Solve()}
		points[i].greedy, points[i].random = baselineUtilities(g, cfg.Rounds)
		return nil
	})
	if err != nil {
		return "", err
	}
	for i, c := range sweepCosts {
		p := points[i]
		fig3a.AddRow(c, p.drl.Price, p.eq.Price, p.drl.MSPUtility, p.eq.MSPUtility, p.greedy, p.random)
		fig3b.AddRow(c,
			p.drl.TotalBandwidth*experiments.BandwidthDisplayScale,
			p.eq.TotalBandwidth*experiments.BandwidthDisplayScale,
			mathx.Sum(p.drl.VMUUtilities), mathx.Sum(p.eq.VMUUtilities))
	}
	return tablesDigest(append(fig2.Tables(), fig3a, fig3b)...), nil
}

// baselineUtilities averages the greedy and random schemes over ten
// seeds, as the cost sweep does.
func baselineUtilities(game *stackelberg.Game, rounds int) (greedy, random float64) {
	const seeds = 10
	for seed := int64(0); seed < seeds; seed++ {
		greedy += baselines.RunEpisode(game, baselines.NewGreedy(game.Cost, game.PMax, 0.1, seed), rounds).MeanUtility
		random += baselines.RunEpisode(game, baselines.NewRandom(game.Cost, game.PMax, seed), rounds).MeanUtility
	}
	return greedy / seeds, random / seeds
}
