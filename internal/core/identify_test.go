package core

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
)

// experimentSpecs returns the twelve designs the experiments make at
// their default seed (2016): the four Fig. 6 weight sets, the two Fig. 8
// guardband designs and the six ablation variants, as the experiments
// package writes them.
func experimentSpecs(t *testing.T) []struct {
	name string
	spec DesignSpec
} {
	t.Helper()
	base := DesignSpec{Training: trainingWorkloads(t), Seed: 2016}
	with := func(mut func(*DesignSpec)) DesignSpec {
		s := base
		mut(&s)
		return s
	}
	const inScale = 250 // experiments.Fig6WeightSets' input-unit scale
	fig6 := func(cache, freq, ips, power float64) DesignSpec {
		return with(func(s *DesignSpec) {
			s.CacheWeight, s.FreqWeight, s.IPSWeight, s.PowerWeight = cache, freq, ips, power
			s.MaxRSAIterations = 1
		})
	}
	return []struct {
		name string
		spec DesignSpec
	}{
		{"fig6/Equal", fig6(1*inScale, 1*inScale, 1, 1)},
		{"fig6/Inputs", fig6(0.01*inScale, 0.01*inScale, 1, 1)},
		{"fig6/Power", fig6(0.01*inScale, 0.01*inScale, 1, 100)},
		{"fig6/Size", fig6(0.001*inScale, 0.01*inScale, 1, 100)},
		{"fig8/high", with(func(s *DesignSpec) {
			s.FreqWeight, s.CacheWeight = DefaultFreqWeight*4, DefaultCacheWeight*4
		})},
		{"fig8/low", with(func(s *DesignSpec) { s.IPSGuardband, s.PowerGuardband = 0.30, 0.20 })},
		{"ablation/paper", base},
		{"ablation/no-delta-u", with(func(s *DesignSpec) { s.DisableDeltaU = true })},
		{"ablation/no-integral", with(func(s *DesignSpec) { s.DisableIntegral = true })},
		{"ablation/flat-weights", with(func(s *DesignSpec) { s.FreqWeight = DefaultCacheWeight })},
		{"ablation/dim2", with(func(s *DesignSpec) { s.ModelDimension = 2 })},
		{"ablation/dim8", with(func(s *DesignSpec) { s.ModelDimension = 8 })},
	}
}

// bitDiff walks a and b (same type) through pointers, structs —
// unexported fields included — slices and arrays, and reports the path
// of the first difference. Floats compare by Float64bits, so -0 vs +0
// and differing NaN payloads count; funcs compare by nil-ness only.
func bitDiff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v != %v", path, a.Float(), b.Float())
		}
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil mismatch"
			}
			return ""
		}
		if a.Kind() == reflect.Interface && a.Elem().Type() != b.Elem().Type() {
			return path + ": dynamic type mismatch"
		}
		return bitDiff(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := bitDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d != %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := bitDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Func, reflect.Chan, reflect.Map:
		if a.IsNil() != b.IsNil() {
			return path + ": nil mismatch"
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v != %v", path, a.Bool(), b.Bool())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d != %d", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s: %d != %d", path, a.Uint(), b.Uint())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q != %q", path, a.String(), b.String())
		}
	default:
		return fmt.Sprintf("%s: unhandled kind %v", path, a.Kind())
	}
	return ""
}

// designDiff compares two design outcomes bit for bit: the controller
// (LQG gains, Kalman and target gains, plant matrices, offsets, runtime
// state), every DesignReport field and the error text.
func designDiff(ca *MIMOController, ra *DesignReport, ea error, cb *MIMOController, rb *DesignReport, eb error) string {
	if fmt.Sprint(ea) != fmt.Sprint(eb) {
		return fmt.Sprintf("error %v != %v", ea, eb)
	}
	if d := bitDiff("ctrl", reflect.ValueOf(ca), reflect.ValueOf(cb)); d != "" {
		return d
	}
	return bitDiff("report", reflect.ValueOf(ra), reflect.ValueOf(rb))
}

// TestDesignMIMOIsIdentifyThenDesign holds the split design flow to the
// one-call flow on every design the experiments make: the experiments
// design on a shared identification, so any difference would move the
// goldens.
func TestDesignMIMOIsIdentifyThenDesign(t *testing.T) {
	for _, c := range experimentSpecs(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			ca, ra, ea := DesignMIMO(c.spec)
			id, err := Identify(c.spec)
			if err != nil {
				t.Fatalf("Identify: %v", err)
			}
			cb, rb, eb := Design(id, c.spec)
			if d := designDiff(ca, ra, ea, cb, rb, eb); d != "" {
				t.Fatalf("Design(Identify(spec), spec) differs from DesignMIMO(spec): %s", d)
			}
		})
	}
}

// TestDesignSharesIdentification designs every default-dimension
// experiment spec from several goroutines on one Identification (run it
// under -race): each result must equal the serial design, and the
// shared model must come out unchanged, compared with an independent
// identification of the same record.
func TestDesignSharesIdentification(t *testing.T) {
	var specs []DesignSpec
	for _, c := range experimentSpecs(t) {
		if c.spec.ModelDimension == 0 {
			specs = append(specs, c.spec)
		}
	}
	shared, err := Identify(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	twin, err := Identify(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		ctrl *MIMOController
		rep  *DesignReport
		err  error
	}
	serial := make([]outcome, len(specs))
	for i, s := range specs {
		serial[i].ctrl, serial[i].rep, serial[i].err = Design(shared, s)
	}
	const goroutines = 4
	got := make([][]outcome, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		got[g] = make([]outcome, len(specs))
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine walks the specs from a different start so
			// designs of different weight sets overlap.
			for k := range specs {
				i := (k + g) % len(specs)
				got[g][i].ctrl, got[g][i].rep, got[g][i].err = Design(shared, specs[i])
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for i, o := range got[g] {
			s := serial[i]
			if d := designDiff(o.ctrl, o.rep, o.err, s.ctrl, s.rep, s.err); d != "" {
				t.Errorf("goroutine %d spec %d: concurrent design differs from serial: %s", g, i, d)
			}
		}
	}
	if d := bitDiff("identification", reflect.ValueOf(shared), reflect.ValueOf(twin)); d != "" {
		t.Fatalf("designs wrote to the shared identification: %s", d)
	}
}
