package main

import (
	"hash/fnv"
	"math"
	"reflect"
	"testing"
	"time"

	"mimoctl/internal/obs"
	"mimoctl/internal/sim"
)

func TestTailLevelLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 90}, {100, 90},
		{99, 75}, {40, 75}, {39, 50}, {20, 50}, {19, 0}, {0, 0},
	} {
		got := tailLevel(c.n)
		if got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
		if got > 0 && float64(c.n)*(100-got)/100 < minTail-1e-9 {
			t.Errorf("tailLevel(%d) = %v leaves fewer than %d samples beyond it", c.n, got, minTail)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // descending: percentile must sort
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	v, level := tail(append([]float64(nil), xs...))
	if level != 90 || v != 90 {
		t.Errorf("tail of 100 samples = %v at p%v, want 90 at p90", v, level)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

// TestPacedTimesFromDueTime injects one stall into an open loop: the ops
// queued behind it must report the wait, because latency runs from each
// op's due time rather than from when it actually started.
func TestPacedTimesFromDueTime(t *testing.T) {
	const (
		period = 2 * time.Millisecond
		stall  = 20 * time.Millisecond
		at     = 3
	)
	lat, late, err := paced(time.Now(), 10, period, func(k int) error {
		if k == at {
			time.Sleep(stall)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if lat[at] < stall {
		t.Errorf("stalled op latency %v, want >= %v", lat[at], stall)
	}
	for k := at + 1; k < at+4; k++ {
		// Op k is due (k-at)*period after the stalled op but cannot start
		// before the stall ends.
		want := stall - time.Duration(k-at)*period
		if late[k] < want {
			t.Errorf("op %d started %v late, want >= %v", k, late[k], want)
		}
		if lat[k] < late[k] {
			t.Errorf("op %d latency %v is less than its lateness %v", k, lat[k], late[k])
		}
	}
}

func TestFleetDigestDetectsOneChangedDecision(t *testing.T) {
	epochs := make([][]sim.Config, 3)
	for e := range epochs {
		epochs[e] = make([]sim.Config, fleetLoops)
		for i := range epochs[e] {
			epochs[e][i] = sim.Config{FreqIdx: (i + e) % 16, CacheIdx: i % 4, ROBIdx: (i / 4) % 4}
		}
	}
	digest := func(perturb func([]sim.Config)) uint64 {
		h := fnv.New64a()
		for e, cfgs := range epochs {
			c := append([]sim.Config(nil), cfgs...)
			if e == 1 && perturb != nil {
				perturb(c)
			}
			h.Write(appendConfigs(nil, c))
		}
		return h.Sum64()
	}
	base := digest(nil)
	if again := digest(nil); again != base {
		t.Fatalf("same decisions gave digests %x and %x", base, again)
	}
	changed := digest(func(c []sim.Config) { c[517].CacheIdx = (c[517].CacheIdx + 1) % 4 })
	if changed == base {
		t.Error("digest unchanged after one lane's cache decision changed")
	}
	swapped := digest(func(c []sim.Config) { c[3], c[4] = c[4], c[3] })
	if swapped == base {
		t.Error("digest unchanged after two lanes swapped decisions")
	}
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	p1, s1 := fleetInputs(defaultSeed, fleetLoops)
	p2, s2 := fleetInputs(defaultSeed, fleetLoops)
	if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(s1, s2) {
		t.Error("fleet inputs differ for the same seed")
	}
	p3, s3 := fleetInputs(heldOutSeed, fleetLoops)
	if reflect.DeepEqual(s1, s3) {
		t.Error("fleet processor seeds identical for different workload seeds")
	}
	names := map[string]bool{}
	for _, p := range p3 {
		names[p.Name()] = true
	}
	if len(names) != 27 {
		t.Errorf("fleet covers %d profiles, want all 27", len(names))
	}

	epochs := func(seed int64) [][]obs.Event {
		g := newEventGen(seed, 64)
		var out [][]obs.Event
		for e := 0; e < 3; e++ {
			out = append(out, g.next(nil))
		}
		return out
	}
	a, b := epochs(defaultSeed), epochs(defaultSeed)
	if !reflect.DeepEqual(a, b) {
		t.Error("history events differ for the same seed")
	}
	if reflect.DeepEqual(a, epochs(heldOutSeed)) {
		t.Error("history events identical for different seeds")
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 10, Parent: -1},
		{Name: "a", Start: 1, End: 3, Parent: 0},
		{Name: "a", Start: 2, End: 5, Parent: 0},  // overlaps the first child
		{Name: "b", Start: 7, End: 12, Parent: 0}, // runs past its parent
	}
	got := map[string]selfStat{}
	for _, s := range selfTimes(spans) {
		got[s.Name] = s
	}
	// Children cover [1,5] and [7,10] of the root: 7 of its 10 ns.
	if self := got["root"].SelfMS * 1e6; math.Abs(self-3) > 1e-9 {
		t.Errorf("root self time %v ns, want 3", self)
	}
	if a := got["a"]; a.Count != 2 || math.Abs(a.SelfMS*1e6-5) > 1e-9 {
		t.Errorf("a = %+v, want 2 spans with 5 ns self time", a)
	}
}
