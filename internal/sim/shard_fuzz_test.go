package sim

import (
	"reflect"
	"testing"
)

// FuzzShardPartition fuzzes the region-sharded simulator against the
// serial one over randomized grids, fleets, region counts, churn rates,
// and an outage window, checking after every step that the shard
// partition conserves the fleet (no vehicle lost, duplicated, or
// double-homed) and at the end that the sharded report DeepEqual-matches
// the serial reference — rule 7 under adversarial inputs. The seed corpus
// doubles as a table test in ordinary runs, and the whole fuzzer runs
// under -race in make race-determinism.
func FuzzShardPartition(f *testing.F) {
	f.Add(uint8(3), uint8(4), uint8(2), uint8(12), int64(1), uint8(0), uint8(20))
	f.Add(uint8(2), uint8(2), uint8(1), uint8(1), int64(7), uint8(3), uint8(40))
	f.Add(uint8(6), uint8(5), uint8(9), uint8(30), int64(42), uint8(10), uint8(25))
	f.Add(uint8(4), uint8(4), uint8(16), uint8(8), int64(99), uint8(1), uint8(30))
	f.Fuzz(func(t *testing.T, rows, cols, regions, vehicles uint8, seed int64, churn, steps uint8) {
		cfg := DefaultConfig()
		cfg.Mobility = MobilityGrid
		cfg.RSUCount = 0
		cfg.Grid = GridConfig{
			Rows:     2 + int(rows)%5,
			Cols:     2 + int(cols)%5,
			SpacingM: 300,
		}
		cfg.RSURadiusM = 250
		cfg.Vehicles = 1 + int(vehicles)%30
		cfg.TimeStepS = 0.5
		cfg.DurationS = 1 // unused: the loop below drives the steps
		cfg.Seed = seed
		if churn%4 != 0 {
			cfg.Churn = ChurnConfig{
				ArrivalRatePerS: float64(churn%4) * 0.1,
				MeanDwellS:      30,
				MaxVehicles:     40,
			}
		}
		cfg.Outages = []OutageWindow{{RSU: 0, StartS: 2, EndS: 8}}
		nSteps := 1 + int(steps)%40

		serialCfg := cfg
		serial, err := New(serialCfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Shards.Regions = 1 + int(regions)%12
		sharded, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sharded.checkShardInvariants(); err != nil {
			t.Fatalf("before first step: %v", err)
		}
		for i := 0; i < nSteps; i++ {
			serial.Step()
			sharded.Step()
			if err := sharded.checkShardInvariants(); err != nil {
				t.Fatalf("regions=%d step %d: %v", cfg.Shards.Regions, i+1, err)
			}
		}
		refRep, rep := serial.Finish(), sharded.Finish()
		if !reflect.DeepEqual(refRep, rep) {
			t.Fatalf("regions=%d diverged after %d steps:\nserial: %+v\nsharded: %+v",
				cfg.Shards.Regions, nSteps, refRep, rep)
		}
	})
}
