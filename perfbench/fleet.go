package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"vtmig/internal/scenario"
	"vtmig/internal/sim"
	"vtmig/internal/stackelberg"
)

// The fleet workload runs the committed metro-10k scenario (oracle
// pricer, region-sharded) as fresh simulators back to back, each at the
// scenario's own seed, so every repetition, traced or not, must match the
// committed golden report. The seed argument does not change this input:
// the scenario's generated outages decide how many ticks take the slow
// serving-RSU scan, so other seeds would change the work per tick. The
// first repetition warms the process up and is not timed.

const (
	metroScenario = "testdata/scenarios/metro-10k.json"
	metroGolden   = "internal/scenario/testdata/report_metro-10k_oracle_golden.txt"
)

// fleetRep is one simulator run's measurements.
type fleetRep struct {
	report string
	rep    sim.Report
	newS   float64
	steps  []float64 // per tick, ms
	prices []float64 // per tick, ms spent in the pricer
	vmus   []float64 // followers per pricing round
	stolen float64   // share of CPU time stolen during the run (stealClock.share)
}

// runFleetRep builds and runs one simulator. With tr set, every Step and
// every pricer call is a span, the pricer wrapped in sim.PricerFunc.
func runFleetRep(sc *scenario.Scenario, tr *tracer) (*fleetRep, error) {
	cfg, err := sc.Compile(sim.PricerBuildOptions{})
	if err != nil {
		return nil, err
	}
	out := &fleetRep{}
	root := tr.id()
	var stepID int64
	var priceMs float64
	if tr != nil {
		inner := cfg.Pricer
		cfg.Pricer = sim.PricerFunc{Label: inner.Name(), Fn: func(g *stackelberg.Game) float64 {
			t0 := time.Now()
			p := inner.PriceFor(g)
			t1 := time.Now()
			tr.leaf("sim.price", stepID, 0, t0, t1, float64(len(g.VMUs)))
			priceMs += ms(t1.Sub(t0))
			out.vmus = append(out.vmus, float64(len(g.VMUs)))
			return p
		}}
	}
	t0 := time.Now()
	sm, err := sim.New(cfg)
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	tr.leaf("sim.new", root, 0, t0, t1, 0)
	out.newS = t1.Sub(t0).Seconds()
	n := int(math.Round(cfg.DurationS / cfg.TimeStepS))
	for i := 0; i < n; i++ {
		stepID, priceMs = tr.id(), 0
		s0 := time.Now()
		sm.Step()
		s1 := time.Now()
		tr.add(stepID, "sim.step", root, int64(i), s0, s1, 0)
		out.steps = append(out.steps, ms(s1.Sub(s0)))
		out.prices = append(out.prices, priceMs)
	}
	out.rep = sm.Finish()
	tr.add(root, "fleet.run", 0, 0, t0, time.Now(), 0)
	out.report = sim.FormatGoldenReport(out.rep)
	if out.rep.SimulatedS != float64(n)*cfg.TimeStepS || out.rep.PricingRounds < 1 || out.rep.PricingRounds > n {
		return nil, fmt.Errorf("fleet report is inconsistent: simulated %gs over %d ticks with %d pricing rounds",
			out.rep.SimulatedS, n, out.rep.PricingRounds)
	}
	return out, nil
}

func runFleet(b *bench) (*report, error) {
	var r report
	committed, err := scenario.Load(filepath.Join(b.root, metroScenario))
	if err != nil {
		return nil, err
	}
	golden, err := os.ReadFile(filepath.Join(b.root, metroGolden))
	if err != nil {
		return nil, err
	}
	// rep runs one repetition and diffs it against the golden report.
	rep := func(tr *tracer) (*fleetRep, error) {
		out, err := runFleetRep(committed, tr)
		if err != nil {
			return nil, err
		}
		r.attempted++
		if err := sim.DiffGoldenReports(string(golden), out.report, sim.GoldenTol); err != nil {
			return nil, fmt.Errorf("metro-10k report (traced=%t) differs from %s: %w", tr != nil, metroGolden, err)
		}
		return out, nil
	}
	first, err := rep(nil)
	if err != nil {
		return nil, err
	}
	newS := []float64{first.newS}
	// reps runs repetitions until the deadline, at least two.
	reps := func(until time.Time, tr *tracer) ([]*fleetRep, error) {
		var out []*fleetRep
		for len(out) < 2 || time.Now().Before(until) {
			clock := startSteal()
			fr, err := rep(tr)
			if err != nil {
				return nil, err
			}
			fr.stolen = clock.share()
			newS = append(newS, fr.newS)
			out = append(out, fr)
		}
		return out, nil
	}
	share := 1.0
	if b.trace {
		share = 0.5
	}
	untraced, err := reps(b.deadline(share), nil)
	if err != nil {
		return nil, err
	}
	ticks := fleetTicks(untraced)
	rate := float64(len(ticks)) / (sum(ticks) / 1e3)
	r.addE2E("setup_s", "s", median(newS), len(newS))
	r.addE2E("p50_ms", "ms", median(ticks), len(ticks)*len(calm(repStolen(untraced))))
	b.logf("every repetition matches %s", metroGolden)
	b.logf("tick_p50_ms %.6g ms, tick_p99_ms %.6g ms, ticks_per_s %.6g 1/s (%d ticks, each the median of %d calm repetitions of %d)",
		median(ticks), quantile(ticks, 0.99), rate, len(ticks), len(calm(repStolen(untraced))), len(untraced))
	if !b.trace {
		return &r, nil
	}

	traced, err := reps(b.deadline(1), b.tr)
	if err != nil {
		return nil, err
	}
	tticks := fleetTicks(traced)
	var price, vehicle, vmus []float64
	for _, rep := range traced {
		for i, s := range rep.steps {
			if rep.prices[i] > 0 {
				price = append(price, rep.prices[i])
			}
			vehicle = append(vehicle, s-rep.prices[i])
		}
		vmus = append(vmus, rep.vmus...)
	}
	base := median(ticks)
	r.addLayer("trace.overhead_pct", "%", 100*(median(tticks)-base)/base, 0)
	b.logf("tracing overhead: tick p50 %.4g ms traced vs %.4g ms untraced", median(tticks), base)
	r.addLayer("trace.unexplained_pct", "%", b.tr.unexplained("fleet.run"), 0)
	r.addLayer("sim.new_s", "s", median(newS), len(newS))
	r.addLayer("sim.step_ms", "ms", median(tticks), len(tticks)*len(calm(repStolen(traced))))
	r.addLayer("sim.step_p99_ms", "ms", quantile(tticks, 0.99), len(tticks)*len(calm(repStolen(traced))))
	r.addLayer("sim.price_ms", "ms", median(price), len(price))
	r.addLayer("sim.vehicle_phase_ms", "ms", median(vehicle), len(vehicle))
	r.addLayer("stackelberg.followers_per_round", "count", mean(vmus), len(vmus))
	last := traced[len(traced)-1].rep
	r.addLayer("sim.handovers", "count", float64(last.Handovers), 0)
	r.addLayer("sim.pricing_rounds", "count", float64(last.PricingRounds), 0)
	r.addLayer("sim.migrations", "count", float64(last.Completed), 0)
	return &r, nil
}

// fleetTicks returns each tick's time as the median over the calm
// repetitions. Every repetition runs the same scenario, so tick
// i does the same work in each; the median keeps a host stall that hit
// one repetition out of the tick's figure.
func fleetTicks(reps []*fleetRep) []float64 {
	calmReps := calm(repStolen(reps))
	ticks := make([]float64, len(reps[0].steps))
	for i := range ticks {
		at := make([]float64, len(calmReps))
		for k, j := range calmReps {
			at[k] = reps[j].steps[i]
		}
		ticks[i] = median(at)
	}
	return ticks
}

// repStolen returns the share of CPU time stolen during each repetition.
func repStolen(reps []*fleetRep) []float64 {
	stolen := make([]float64, len(reps))
	for i, rep := range reps {
		stolen[i] = rep.stolen
	}
	return stolen
}
