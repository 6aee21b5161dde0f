package main

import "fmt"

// catalogEntry names one metric of the result, as BENCHMARK.json lists
// it.
type catalogEntry struct {
	name, unit, better string
}

// e2eCatalog is the end-to-end metric set every untraced run reports in
// its result. Each workload reads the names for its own unit of work:
//
//	setup_s      serve.Open boot (plus serve.OpenReplica on serve-mixed),
//	             sim.New, or building Fig. 2's envs, learner and trainer
//	p50_ms       a write quote (serve-write), a replica read (serve-mixed),
//	             a Simulator.Step tick (fleet-metro), one regeneration of
//	             Fig. 2 plus the Fig. 3 cost sweep (train-figs)
//	peak_heap_mb the run's peak live Go heap
//
// The tails and rates (p99s, max_qps, ticks_per_s, train_s) are printed
// by name above the result but stay out of it: on a shared two-core host
// the serving p99 and max_qps move with disk and scheduler stalls by
// more than any regression bound the result may carry.
var e2eCatalog = []catalogEntry{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"peak_heap_mb", "MB", "lower"},
}

// layerCatalog is the per-layer metric set every traced run reports. A
// layer the workload does not run reports 0. README.md maps each layer to
// the workload that exercises it and the end-to-end metric it moves.
var layerCatalog = []catalogEntry{
	{"http.handler_us", "us", "lower"},
	{"http.transport_us", "us", "lower"},
	{"serve.quote_plain_us", "us", "lower"},
	{"serve.quote_update_ms", "ms", "lower"},
	{"serve.queue_wait_us", "us", "lower"},
	{"serve.journal_us", "us", "lower"},
	{"serve.rotate_ms", "ms", "lower"},
	{"serve.recover_ms", "ms", "lower"},
	{"serve.replayed_rounds", "count", "lower"},
	{"serve.replica_quote_us", "us", "lower"},
	{"serve.replica_refresh_ms", "ms", "lower"},
	{"serve.replica_refreshes", "count", "higher"},
	{"serve.read_staleness_rounds", "rounds", "lower"},
	{"sim.prep_us", "us", "lower"},
	{"sim.core_us", "us", "lower"},
	{"sim.snapshot_us", "us", "lower"},
	{"rl.update_ms", "ms", "lower"},
	{"rl.episode_ms", "ms", "lower"},
	{"rl.policy_us", "us", "lower"},
	{"pomdp.env_step_us", "us", "lower"},
	{"nn.encode_us", "us", "lower"},
	{"nn.decode_us", "us", "lower"},
	{"nn.checkpoint_bytes", "bytes", "lower"},
	{"sim.new_s", "s", "lower"},
	{"sim.step_ms", "ms", "lower"},
	{"sim.step_p99_ms", "ms", "lower"},
	{"sim.price_ms", "ms", "lower"},
	{"sim.vehicle_phase_ms", "ms", "lower"},
	{"stackelberg.followers_per_round", "count", "lower"},
	{"sim.handovers", "count", "lower"},
	{"sim.pricing_rounds", "count", "higher"},
	{"sim.migrations", "count", "higher"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.unexplained_pct", "%", "lower"},
}

// complete checks that a run reported every metric of its catalog. Layers
// the workload does not run are filled in as 0.
func complete(b *bench, rep *report) error {
	has := map[string]metric{}
	if !b.trace {
		for _, m := range rep.e2e {
			has[m.name] = m
		}
		for _, c := range e2eCatalog {
			if m, ok := has[c.name]; !ok || m.unit != c.unit {
				return fmt.Errorf("workload %s did not report end-to-end metric %s in %s", b.workload, c.name, c.unit)
			}
		}
		return nil
	}
	for _, m := range rep.layers {
		if _, dup := has[m.name]; dup {
			return fmt.Errorf("workload %s reported layer metric %s twice", b.workload, m.name)
		}
		has[m.name] = m
	}
	for _, c := range layerCatalog {
		m, ok := has[c.name]
		if !ok {
			rep.addLayer(c.name, c.unit, 0, 0)
			continue
		}
		if m.unit != c.unit {
			return fmt.Errorf("layer metric %s reported in %s, catalog says %s", c.name, m.unit, c.unit)
		}
		delete(has, c.name)
	}
	for name := range has {
		return fmt.Errorf("layer metric %s is missing from the catalog", name)
	}
	return nil
}
