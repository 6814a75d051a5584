package repro

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/runner"
)

// keyOf hashes a serve cell's job the way Session.Serve submits it.
func keyOf(t *testing.T, c *runner.Cache, cfg ServiceConfig, cl ServiceCell) string {
	t.Helper()
	k, err := c.Key(runner.Job[ServiceCellStats]{ID: cl.ResultID(), Mach: core.DefaultMachine(), Key: cellKey(cfg)})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// mutateLeaves changes every settable scalar under v in turn (through
// structs, arrays, slices and non-nil interfaces), calls visit with the
// changed value in place, and restores it.
func mutateLeaves(t *testing.T, v reflect.Value, path string, visit func(path string)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				t.Fatalf("%s.%s is unexported: the cache key cannot see it", path, v.Type().Field(i).Name)
			}
			mutateLeaves(t, v.Field(i), path+"."+v.Type().Field(i).Name, visit)
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			mutateLeaves(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
	case reflect.Interface:
		if v.IsNil() {
			return
		}
		orig := v.Elem()
		cp := reflect.New(orig.Type()).Elem()
		cp.Set(orig)
		mutateLeaves(t, cp, path+"."+orig.Type().Name(), func(p string) {
			v.Set(cp)
			visit(p)
			v.Set(orig)
		})
	case reflect.Bool:
		v.SetBool(!v.Bool())
		visit(path)
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
		visit(path)
		v.SetInt(v.Int() - 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
		visit(path)
		v.SetUint(v.Uint() - 1)
	case reflect.Float32, reflect.Float64:
		old := v.Float()
		v.SetFloat(old*2 + 1)
		visit(path)
		v.SetFloat(old)
	case reflect.String:
		old := v.String()
		v.SetString(old + "x")
		visit(path)
		v.SetString(old)
	default:
		t.Fatalf("%s: no mutation for kind %s", path, v.Kind())
	}
}

// TestServeCellKeyCoversConfig: a serve cell keys on exactly its own
// configuration. Changing any field of the normalized config narrowed
// to the cell changes the key, and so does swapping a workload spec
// for another type with the same fields; changing another cell's rate
// or policy, or which rate the sweep lists first, does not.
func TestServeCellKeyCoversConfig(t *testing.T) {
	c, err := runner.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultServiceConfig()
	cfg.Arrivals.Kind = ArrivalBursty // the one kind that reads Burst
	cfg.Topology = Topology{Cores: 2}
	cfg.ShedAfter = 5000
	norm, err := cfg.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	cl := ServiceCell{Policy: PolicyEventAware, Rate: 0.1}
	cell := cellConfig(norm, cl)
	base := keyOf(t, c, cell, cl)

	leaves := 0
	mutateLeaves(t, reflect.ValueOf(&cell).Elem(), "Config", func(path string) {
		leaves++
		if keyOf(t, c, cell, cl) == base {
			t.Errorf("changing %s left the cell key unchanged", path)
		}
	})
	if leaves < 20 {
		t.Fatalf("walked %d leaves of the config, want every field", leaves)
	}
	if keyOf(t, c, cell, cl) != base {
		t.Fatal("mutations were not restored")
	}

	twin := cell
	chase := twin.Workload.Request.(PointerChase)
	twin.Workload.Request = MultiChase{Nodes: chase.Nodes, Hops: chase.Hops, Instances: chase.Instances}
	if keyOf(t, c, twin, cl) == base {
		t.Error("a MultiChase request with PointerChase's fields shares its key")
	}

	for _, other := range []struct {
		name     string
		rates    []float64
		policies []ServicePolicy
	}{
		{"only this cell", []float64{0.1}, []ServicePolicy{PolicyEventAware}},
		{"rate listed second", []float64{0.2, 0.1}, norm.Policies},
		{"other policies", []float64{0.1, 0.4}, []ServicePolicy{PolicyAgnostic, PolicyEventAware}},
	} {
		sweep := cfg
		sweep.Rates, sweep.Policies = other.rates, other.policies
		sweep.Arrivals.Rate = other.rates[0]
		n, err := sweep.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		if keyOf(t, c, cellConfig(n, cl), cl) != base {
			t.Errorf("%s: the cell's key depends on the rest of the grid", other.name)
		}
	}
}

// smallSweep is a quick Poisson serve sweep over rates, built the way
// cli.ServiceFlags.ServiceConfig builds one, with Arrivals.Rate set to
// the first rate of the sweep.
func smallSweep(rates ...float64) ServiceConfig {
	return ServiceConfig{
		Workload: Workload{Request: PointerChase{Nodes: 512, Hops: 4, Instances: 2}},
		Arrivals: ArrivalSpec{Kind: ArrivalPoisson, Rate: rates[0], Burst: 8},
		Rates:    rates,
		Requests: 100,
		Workers:  2,
		Queue:    16,
		Batch:    1,
		Policies: []ServicePolicy{PolicyEventAware},
	}
}

// TestServeSubsweepHitsCache: a cell computed inside a wider sweep is
// served to a later sweep that asks for it alone.
func TestServeSubsweepHitsCache(t *testing.T) {
	dir := t.TempDir()
	wide, err := NewSession(WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	full, err := wide.Serve(context.Background(), smallSweep(0.1, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := NewSession(WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := narrow.Serve(context.Background(), smallSweep(0.2))
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := narrow.CacheStats(); hits != 1 || misses != 0 {
		t.Fatalf("rate-0.2 sweep after a 0.1,0.2 sweep: %d hit(s), %d miss(es), want 1 and 0", hits, misses)
	}
	if !reflect.DeepEqual(sub.Cells[0], full.Cells[1]) {
		t.Errorf("served cell differs from the one computed in the wide sweep:\n%+v\n%+v", sub.Cells[0], full.Cells[1])
	}
}

// TestServeUnreadBurstHitsCache: only bursty arrivals read Burst, so a
// Poisson sweep is served from the cache whatever burst size it names,
// while a bursty one keys on it.
func TestServeUnreadBurstHitsCache(t *testing.T) {
	dir := t.TempDir()
	serve := func(kind ArrivalKind, burst float64) (*ServiceReport, uint64, uint64) {
		t.Helper()
		s, err := NewSession(WithCache(dir))
		if err != nil {
			t.Fatal(err)
		}
		cfg := smallSweep(0.1)
		cfg.Arrivals.Kind, cfg.Arrivals.Burst = kind, burst
		rep, err := s.Serve(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		hits, misses := s.CacheStats()
		return rep, hits, misses
	}
	first, _, _ := serve(ArrivalPoisson, 8)
	again, hits, misses := serve(ArrivalPoisson, 4)
	if hits != 1 || misses != 0 {
		t.Errorf("Poisson sweep at burst 4 after burst 8: %d hit(s), %d miss(es), want 1 and 0", hits, misses)
	}
	if !reflect.DeepEqual(first.Cells, again.Cells) {
		t.Errorf("served cells differ:\n%+v\n%+v", first.Cells, again.Cells)
	}
	serve(ArrivalBursty, 8)
	if _, hits, misses := serve(ArrivalBursty, 4); hits != 0 || misses != 1 {
		t.Errorf("bursty sweep at burst 4 after burst 8: %d hit(s), %d miss(es), want 0 and 1", hits, misses)
	}
}
