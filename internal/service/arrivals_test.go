package service

import (
	"math"
	"runtime"
	"testing"
)

// The seeded sequences are pinned exactly: the arrival stream is part
// of every cached service result's identity, so a drift here is a
// compatibility break, not a tuning change.
func TestArrivalsGoldenSequences(t *testing.T) {
	cases := []struct {
		name string
		spec ArrivalSpec
		seed int64
		want []uint64
	}{
		{
			name: "poisson",
			spec: ArrivalSpec{Kind: Poisson, Rate: 0.5},
			seed: 20230626,
			want: []uint64{70, 1358, 4509, 5694, 6488, 10587, 12719, 16359},
		},
		{
			name: "bursty",
			spec: ArrivalSpec{Kind: Bursty, Rate: 1, Burst: 4},
			seed: 7,
			want: []uint64{11304, 11304, 11304, 11304, 11304, 11304, 11304, 11304, 11304, 11304, 11304, 11304},
		},
		{
			name: "uniform",
			spec: ArrivalSpec{Kind: Uniform, Rate: 0.75},
			seed: 1,
			want: []uint64{4000, 8000, 12000, 16000, 20000},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := NewArrivals(tc.spec, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range tc.want {
				if got := a.Next(); got != want {
					t.Fatalf("arrival %d = %d, want %d", i, got, want)
				}
			}
		})
	}
}

// The generator is pure state: repeated runs and any GOMAXPROCS
// setting must produce the identical sequence.
func TestArrivalsDeterministic(t *testing.T) {
	gen := func() []uint64 {
		a, err := NewArrivals(ArrivalSpec{Kind: Bursty, Rate: 2, Burst: 8}, 42)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]uint64, 10000)
		for i := range out {
			out[i] = a.Next()
		}
		return out
	}
	ref := gen()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		got := gen()
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("GOMAXPROCS=%d: arrival %d = %d, want %d", procs, i, got[i], ref[i])
			}
		}
	}
}

// Every process must hold its configured long-run rate: the mean
// inter-arrival gap over a long sequence stays within tolerance of
// CyclesPerMicro/Rate.
func TestArrivalsEmpiricalRate(t *testing.T) {
	const n = 200000
	cases := []struct {
		name string
		spec ArrivalSpec
		tol  float64 // relative tolerance on the mean gap
	}{
		{"poisson", ArrivalSpec{Kind: Poisson, Rate: 0.5}, 0.02},
		{"uniform", ArrivalSpec{Kind: Uniform, Rate: 0.5}, 0.001},
		{"bursty", ArrivalSpec{Kind: Bursty, Rate: 0.5, Burst: 8}, 0.05},
		{"poisson-fast", ArrivalSpec{Kind: Poisson, Rate: 4}, 0.02},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := NewArrivals(tc.spec, 20230626)
			if err != nil {
				t.Fatal(err)
			}
			var last uint64
			for i := 0; i < n; i++ {
				last = a.Next()
			}
			mean := float64(last) / n
			want := CyclesPerMicro / tc.spec.Rate
			if rel := math.Abs(mean-want) / want; rel > tc.tol {
				t.Fatalf("mean gap %.1f cycles, want %.1f ± %.1f%%", mean, want, tc.tol*100)
			}
		})
	}
}

// Bursty emits non-decreasing timestamps and actually clusters:
// with mean burst 8 a long stream must contain many zero gaps.
func TestArrivalsBurstyClusters(t *testing.T) {
	a, err := NewArrivals(ArrivalSpec{Kind: Bursty, Rate: 1, Burst: 8}, 3)
	if err != nil {
		t.Fatal(err)
	}
	var prev uint64
	zero := 0
	const n = 10000
	for i := 0; i < n; i++ {
		v := a.Next()
		if v < prev {
			t.Fatalf("arrival %d went backwards: %d after %d", i, v, prev)
		}
		if i > 0 && v == prev {
			zero++
		}
		prev = v
	}
	// Mean burst 8 → ~7/8 of gaps are intra-burst.
	if zero < n/2 {
		t.Fatalf("only %d/%d zero gaps; bursts are not clustering", zero, n)
	}
}

func TestArrivalSpecValidate(t *testing.T) {
	bad := []ArrivalSpec{
		{Kind: Poisson, Rate: 0},
		{Kind: Uniform, Rate: -1},
		{Kind: Bursty, Rate: 1, Burst: 0.5},
		{Kind: Kind(99), Rate: 1},
		{Kind: Poisson, Rate: math.Inf(1)},
		{Kind: Bursty, Rate: 1, Burst: math.Inf(1)},
		{Kind: Poisson, Rate: 1, Burst: math.NaN()},
	}
	for _, spec := range bad {
		if _, err := NewArrivals(spec, 1); err == nil {
			t.Errorf("spec %+v: want error", spec)
		}
	}
	if _, err := ParseKind("bursty"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Fatal("want error for unknown kind")
	}
}
