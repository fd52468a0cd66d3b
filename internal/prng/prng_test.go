package prng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	t.Parallel()
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("step %d: sources with equal seeds diverged: %d vs %d", i, got, want)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	t.Parallel()
	a := New(1)
	b := New(2)
	same := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/%d identical outputs; streams should be unrelated", same, n)
	}
}

func TestIntnRange(t *testing.T) {
	t.Parallel()
	src := New(7)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := src.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d, out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	t.Parallel()
	src := New(3)
	sum := 0.0
	const n = 10000
	for i := 0; i < n; i++ {
		f := src.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.02 {
		t.Errorf("Float64 mean = %v, want about 0.5", mean)
	}
}

func TestSplitIndependence(t *testing.T) {
	t.Parallel()
	parent := New(9)
	child := parent.Split()
	same := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("parent and split child produced %d/%d identical outputs", same, n)
	}
}

func TestSplitDeterministic(t *testing.T) {
	t.Parallel()
	a := New(9).Split()
	b := New(9).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not deterministic for equal parents")
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	t.Parallel()
	src := New(13)
	for _, n := range []int{0, 1, 2, 5, 31, 100} {
		p := src.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestIntnUniformityProperty(t *testing.T) {
	t.Parallel()
	// Property: for any seed and any small n, 10n draws hit every residue class.
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%8) + 2
		src := New(seed)
		seen := make(map[int]bool)
		for i := 0; i < 200*n; i++ {
			seen[src.Intn(n)] = true
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestUint64HighBitVaries(t *testing.T) {
	t.Parallel()
	src := New(31)
	ones := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if src.Uint64()>>63 == 1 {
			ones++
		}
	}
	if ones < n/3 || ones > 2*n/3 {
		t.Errorf("high bit set %d/%d times; expected roughly half", ones, n)
	}
}

func BenchmarkUint64(b *testing.B) {
	src := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = src.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	src := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = src.Intn(1000)
	}
}

func TestReseedMatchesNew(t *testing.T) {
	t.Parallel()
	reused := New(1)
	for i := 0; i < 100; i++ {
		reused.Uint64() // advance to an arbitrary interior state
	}
	reused.Reseed(42)
	fresh := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := reused.Uint64(), fresh.Uint64(); got != want {
			t.Fatalf("step %d: Reseed(42) diverged from New(42): %d vs %d", i, got, want)
		}
	}
}

func TestSplitToMatchesSplit(t *testing.T) {
	t.Parallel()
	a := New(7)
	b := New(7)
	split := a.Split()
	var dst Source
	dst.Reseed(99) // dirty the destination to prove Reseed fully overwrites it
	b.SplitTo(&dst)
	for i := 0; i < 1000; i++ {
		if got, want := dst.Uint64(), split.Uint64(); got != want {
			t.Fatalf("step %d: SplitTo destination diverged from Split result: %d vs %d", i, got, want)
		}
		if got, want := b.Uint64(), a.Uint64(); got != want {
			t.Fatalf("step %d: SplitTo advanced the parent differently than Split: %d vs %d", i, got, want)
		}
	}
}
