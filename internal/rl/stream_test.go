package rl

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"vtmig/internal/nn"
)

// streamTransition is one precomputed external transition for the
// StreamCollector tests: the same fixed stream is replayed into
// differently configured learners, so any weight divergence is the
// learner's, not the stream's.
type streamTransition struct {
	obs, raw            []float64
	logP, reward, value float64
	done                bool
	next                []float64
}

// streamPPOCfg returns a small fast learner configuration for the stream
// tests.
func streamPPOCfg(seed int64) PPOConfig {
	cfg := DefaultPPOConfig()
	cfg.Seed = seed
	cfg.MiniBatch = 8
	cfg.Epochs = 3
	return cfg
}

// makeStream precomputes n transitions with an independent behavior
// policy on the deterministic allocEnv.
func makeStream(t *testing.T, n int) []streamTransition {
	t.Helper()
	env := newAllocEnv(6)
	actor := NewPPO(6, 1, []float64{0}, []float64{1}, streamPPOCfg(11))
	stream := make([]streamTransition, 0, n)
	obs := append([]float64(nil), env.Reset()...)
	for k := 0; k < n; k++ {
		raw, envAct, logP, value := actor.SelectAction(obs)
		next, reward, done := env.Step(envAct)
		tr := streamTransition{
			obs:    obs,
			raw:    append([]float64(nil), raw...),
			logP:   logP,
			reward: reward,
			value:  value,
			done:   done,
			next:   append([]float64(nil), next...),
		}
		stream = append(stream, tr)
		obs = tr.next
		if done {
			obs = append([]float64(nil), env.Reset()...)
		}
	}
	return stream
}

// feedStream replays a fixed stream into a fresh learner, cut into the
// given number of contiguous shards at optimization-phase boundaries, and
// returns the final network weights. Between shards the learner is
// snapshotted, persisted through Save/LoadCheckpoint, and restored into a
// fresh learner fed by a fresh collector; shards=1 is the uninterrupted
// feed.
func feedStream(t *testing.T, stream []streamTransition, shards int) [][]float64 {
	t.Helper()
	const updateEvery = 8
	if len(stream)%updateEvery != 0 {
		t.Fatalf("stream length %d is not a multiple of UpdateEvery %d", len(stream), updateEvery)
	}
	phases := len(stream) / updateEvery
	newAgent := func() *PPO {
		return NewPPO(len(stream[0].obs), len(stream[0].raw), []float64{0}, []float64{1}, streamPPOCfg(3))
	}
	agent := newAgent()
	var col *StreamCollector
	for s := 0; s < shards; s++ {
		if s > 0 {
			ck, err := agent.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := ck.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := nn.LoadCheckpoint(&buf)
			if err != nil {
				t.Fatal(err)
			}
			agent = newAgent()
			if err := agent.Restore(loaded); err != nil {
				t.Fatal(err)
			}
		}
		col = NewStreamCollector(agent, updateEvery)
		lo, hi := s*phases/shards*updateEvery, (s+1)*phases/shards*updateEvery
		for _, tr := range stream[lo:hi] {
			col.Add(tr.obs, tr.raw, tr.logP, tr.reward, tr.value, tr.done, tr.next)
		}
	}
	last := stream[len(stream)-1]
	col.Flush(last.done, last.next)
	var weights [][]float64
	for _, p := range agent.Params() {
		weights = append(weights, append([]float64(nil), p.Value...))
	}
	return weights
}

// TestStreamCollectorShardBitIdentical pins determinism contract rule 5
// at the collector level: a fixed external transition stream produces
// bit-identical weights for every stream shard count × GOMAXPROCS
// combination, because the collector adds no ordering of its own, the
// update's cross-row sums are serial and row-ascending, and a checkpoint
// taken at a phase boundary carries the learner's whole state (weights,
// optimizer moments, RNG position) into the next shard.
func TestStreamCollectorShardBitIdentical(t *testing.T) {
	stream := makeStream(t, 40)
	ref := feedStream(t, stream, 1)
	for _, shards := range []int{2, 3, 5} {
		for _, gmp := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("shards=%d/gomaxprocs=%d", shards, gmp), func(t *testing.T) {
				prev := runtime.GOMAXPROCS(gmp)
				defer runtime.GOMAXPROCS(prev)
				got := feedStream(t, stream, shards)
				for pi := range ref {
					for i := range ref[pi] {
						if math.Float64bits(ref[pi][i]) != math.Float64bits(got[pi][i]) {
							t.Fatalf("param %d[%d]: %v != uninterrupted %v", pi, i, got[pi][i], ref[pi][i])
						}
					}
				}
			})
		}
	}
}

// TestStreamCollectorUpdateCadence pins the |I|-round update schedule and
// the Flush semantics.
func TestStreamCollectorUpdateCadence(t *testing.T) {
	stream := makeStream(t, 25)
	agent := NewPPO(len(stream[0].obs), 1, []float64{0}, []float64{1}, streamPPOCfg(3))
	col := NewStreamCollector(agent, 10)
	for k, tr := range stream {
		stats, ran := col.Add(tr.obs, tr.raw, tr.logP, tr.reward, tr.value, tr.done, tr.next)
		wantRan := (k+1)%10 == 0
		if ran != wantRan {
			t.Fatalf("transition %d: ran=%v, want %v", k, ran, wantRan)
		}
		if ran && stats.Samples == 0 {
			t.Fatalf("transition %d: phase ran with zero samples", k)
		}
	}
	if col.Updates() != 2 || col.Pending() != 5 || col.Total() != 25 {
		t.Fatalf("updates=%d pending=%d total=%d, want 2/5/25", col.Updates(), col.Pending(), col.Total())
	}
	last := stream[len(stream)-1]
	if _, ran := col.Flush(last.done, last.next); !ran {
		t.Fatal("Flush with a partial segment did not run")
	}
	if col.Updates() != 3 || col.Pending() != 0 {
		t.Fatalf("after Flush: updates=%d pending=%d", col.Updates(), col.Pending())
	}
	if _, ran := col.Flush(last.done, last.next); ran {
		t.Fatal("empty Flush ran an update")
	}
	if col.LastStats().Samples == 0 {
		t.Fatal("LastStats not retained")
	}
}

// TestStreamCollectorAllocationFree pins that the steady-state stream
// loop — staging plus periodic updates — does not allocate once the
// arenas and update scratch have grown.
func TestStreamCollectorAllocationFree(t *testing.T) {
	stream := makeStream(t, 16)
	agent := NewPPO(len(stream[0].obs), 1, []float64{0}, []float64{1}, streamPPOCfg(3))
	col := NewStreamCollector(agent, 8)
	feed := func() {
		for _, tr := range stream {
			col.Add(tr.obs, tr.raw, tr.logP, tr.reward, tr.value, tr.done, tr.next)
		}
	}
	feed() // warm-up grows arenas, minibatch scratch, Adam state
	if allocs := testing.AllocsPerRun(5, feed); allocs > 0 {
		t.Fatalf("steady-state stream loop allocates %.1f times per pass", allocs)
	}
}

// TestStreamCollectorValidation pins the constructor contract.
func TestStreamCollectorValidation(t *testing.T) {
	agent := NewPPO(2, 1, []float64{-1}, []float64{1}, streamPPOCfg(1))
	for _, bad := range []int{0, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("updateEvery=%d accepted", bad)
				}
			}()
			NewStreamCollector(agent, bad)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil agent accepted")
			}
		}()
		NewStreamCollector(nil, 10)
	}()
}
