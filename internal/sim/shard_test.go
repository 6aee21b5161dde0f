package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"vtmig/internal/mobility"
)

// This file pins rule 7 of the determinism contract: a region-sharded
// simulator — any region count, under any GOMAXPROCS — produces a
// bit-identical sim.Report, a byte-identical trace, and (for online
// pricers) bit-identical final network weights to the serial simulator.
// The workload deliberately stacks every order-sensitive subsystem: the
// grid world with per-vehicle turn streams, heterogeneous classes, churn,
// RSU outages, the day/night demand cycle, and injected pricing failures.

// shardWorkloadConfig is the kitchen-sink fixture for the rule-7 tables.
func shardWorkloadConfig() Config {
	cfg := DefaultConfig()
	cfg.Mobility = MobilityGrid
	cfg.RSUCount = 0
	cfg.Grid = GridConfig{Rows: 5, Cols: 6, SpacingM: 400}
	cfg.RSURadiusM = 320
	cfg.Vehicles = 36
	cfg.TimeStepS = 0.5
	cfg.DurationS = 300
	cfg.Seed = 13
	cfg.Classes = []VehicleClass{
		{Name: "commuter", Weight: 3},
		{Name: "freight", Weight: 1, SpeedMinMps: 8, SpeedMaxMps: 14, VTMemoryMinMB: 220, VTMemoryMaxMB: 300},
	}
	cfg.Churn = ChurnConfig{ArrivalRatePerS: 0.2, MeanDwellS: 120, MaxVehicles: 60}
	cfg.Outages = []OutageWindow{
		{RSU: 7, StartS: 40, EndS: 90},
		{RSU: 22, StartS: 120, EndS: 200},
	}
	cfg.Demand = DemandConfig{PeriodS: 100, DayFraction: 0.6, NightSpeedFactor: 0.5, NightSensingFactor: 2}
	cfg.PricingFailureRate = 0.02
	return cfg
}

// runShardWorkload runs the fixture with the given region count and
// returns the report plus the raw trace bytes.
func runShardWorkload(t *testing.T, regions int) (Report, []byte) {
	t.Helper()
	var buf bytes.Buffer
	cfg := shardWorkloadConfig()
	cfg.TraceWriter = &buf
	cfg.Shards.Regions = regions
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s.Run(), buf.Bytes()
}

// TestShardSimBitIdenticalRule7 is the rule-7 table: region count ×
// GOMAXPROCS against the serial reference, DeepEqual on the report (every
// float compared exactly) and byte equality on the trace.
func TestShardSimBitIdenticalRule7(t *testing.T) {
	refRep, refTrace := runShardWorkload(t, 0)
	if refRep.Completed == 0 || refRep.Arrivals == 0 || refRep.FailedRounds == 0 {
		t.Fatalf("reference workload is trivial: %+v", refRep)
	}
	for _, regions := range []int{1, 2, 4, 7} {
		for _, gmp := range []int{1, 4} {
			name := fmt.Sprintf("regions=%d/gomaxprocs=%d", regions, gmp)
			t.Run(name, func(t *testing.T) {
				prev := runtime.GOMAXPROCS(gmp)
				defer runtime.GOMAXPROCS(prev)
				rep, tr := runShardWorkload(t, regions)
				if !reflect.DeepEqual(refRep, rep) {
					t.Fatalf("report diverged from serial reference:\nserial: %+v\ngot:    %+v", refRep, rep)
				}
				if !bytes.Equal(refTrace, tr) {
					t.Fatalf("trace diverged from serial reference (%d vs %d bytes)", len(refTrace), len(tr))
				}
			})
		}
	}
}

// TestShardSimHighwayBitIdentical covers the highway world, including
// more regions than RSUs (empty shards must be inert).
func TestShardSimHighwayBitIdentical(t *testing.T) {
	run := func(regions int) Report {
		cfg := DefaultConfig()
		cfg.DurationS = 400
		cfg.Seed = 17
		cfg.Churn = ChurnConfig{ArrivalRatePerS: 0.05, MeanDwellS: 150}
		cfg.Shards.Regions = regions
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s.Run()
	}
	ref := run(0)
	if ref.Completed == 0 {
		t.Fatalf("reference run is trivial: %+v", ref)
	}
	for _, regions := range []int{1, 3, 8, 11} {
		if rep := run(regions); !reflect.DeepEqual(ref, rep) {
			t.Fatalf("regions=%d diverged:\nserial: %+v\ngot:    %+v", regions, ref, rep)
		}
	}
}

// TestShardOnlineSimBitIdentical extends the rule-5 online table with
// rule 7: sharded stepping under a trained online pricer leaves the
// report and the final network weights bit-identical.
func TestShardOnlineSimBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("online training table skipped in -short mode")
	}
	refRep, refW := onlineSimRun(t, 1, 0)
	for _, regions := range []int{2, 5} {
		for _, gmp := range []int{1, 4} {
			name := fmt.Sprintf("regions=%d/gomaxprocs=%d", regions, gmp)
			t.Run(name, func(t *testing.T) {
				prev := runtime.GOMAXPROCS(gmp)
				defer runtime.GOMAXPROCS(prev)
				rep, w := onlineSimRun(t, 1, regions)
				if !reflect.DeepEqual(refRep, rep) {
					t.Fatalf("report diverged from serial reference:\nserial: %+v\ngot:    %+v", refRep, rep)
				}
				sameBits(t, name, refW, w)
			})
		}
	}
}

// TestShardInvariantsUnderChurnAndOutages steps the kitchen-sink
// workload one tick at a time and checks migration conservation (no
// vehicle lost, duplicated, or stranded in a stale region) after every
// step.
func TestShardInvariantsUnderChurnAndOutages(t *testing.T) {
	cfg := shardWorkloadConfig()
	cfg.DurationS = 150
	cfg.Shards.Regions = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.checkShardInvariants(); err != nil {
		t.Fatalf("before first step: %v", err)
	}
	steps := int(cfg.DurationS / cfg.TimeStepS)
	for i := 0; i < steps; i++ {
		s.Step()
		if err := s.checkShardInvariants(); err != nil {
			t.Fatalf("after step %d (t=%.1fs): %v", i+1, s.Now(), err)
		}
	}
	rep := s.Finish()
	if rep.Completed == 0 {
		t.Fatalf("workload completed no migrations: %+v", rep)
	}
}

// TestDiscardMigrationRecordsKeepsAggregates pins the streaming report:
// discarding per-migration records must change nothing but the record
// slice itself, serial and sharded alike.
func TestDiscardMigrationRecordsKeepsAggregates(t *testing.T) {
	for _, regions := range []int{0, 3} {
		cfg := shardWorkloadConfig()
		cfg.Shards.Regions = regions
		full, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fullRep := full.Run()

		cfg = shardWorkloadConfig()
		cfg.Shards.Regions = regions
		cfg.DiscardMigrationRecords = true
		lean, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		leanRep := lean.Run()

		if leanRep.Migrations != nil {
			t.Fatalf("regions=%d: discard mode kept %d records", regions, len(leanRep.Migrations))
		}
		if leanRep.Completed != len(fullRep.Migrations) {
			t.Fatalf("regions=%d: Completed = %d, want %d", regions, leanRep.Completed, len(fullRep.Migrations))
		}
		fullRep.Migrations = nil
		if !reflect.DeepEqual(fullRep, leanRep) {
			t.Fatalf("regions=%d: aggregates diverged:\nfull: %+v\nlean: %+v", regions, fullRep, leanRep)
		}
	}
}

// TestRegionOfPartition pins the region map: total (every RSU id lands in
// [0, regions)), monotone, contiguous, and balanced to within one RSU.
func TestRegionOfPartition(t *testing.T) {
	for _, rsus := range []int{1, 2, 8, 30, 97} {
		for _, regions := range []int{1, 2, 4, 7, 30, 40} {
			s := &Simulator{shards: make([]simShard, regions), world: fixedRSUWorld{n: rsus}}
			counts := make([]int, regions)
			prev := 0
			for id := 0; id < rsus; id++ {
				r := s.regionOf(id)
				if r < 0 || r >= regions {
					t.Fatalf("rsus=%d regions=%d: regionOf(%d) = %d out of range", rsus, regions, id, r)
				}
				if r < prev {
					t.Fatalf("rsus=%d regions=%d: regionOf(%d) = %d < previous %d (not contiguous)", rsus, regions, id, r, prev)
				}
				prev = r
				counts[r]++
			}
			if got := s.regionOf(-1); got != 0 {
				t.Fatalf("regionOf(-1) = %d, want 0", got)
			}
			min, max := rsus, 0
			for _, c := range counts {
				if c < min {
					min = c
				}
				if c > max {
					max = c
				}
			}
			if regions <= rsus && max-min > 1 {
				t.Fatalf("rsus=%d regions=%d: unbalanced partition %v", rsus, regions, counts)
			}
		}
	}
}

// fixedRSUWorld is a stub world for partition-map tests; only RSUCount is
// ever called.
type fixedRSUWorld struct {
	mobility.World
	n int
}

func (w fixedRSUWorld) RSUCount() int { return w.n }
