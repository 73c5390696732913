package model

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"gowarp/internal/event"
)

func TestRandDeterminism(t *testing.T) {
	a := NewRand(7)
	b := NewRand(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(8)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds collided %d/1000 times", same)
	}
}

func TestRandValueCopyIsSnapshot(t *testing.T) {
	// The property Time Warp depends on: copying the generator by value
	// snapshots the stream, and the copy replays it exactly.
	r := NewRand(11)
	r.Uint64()
	snap := r // value copy, as State.Clone does
	seq1 := []uint64{r.Uint64(), r.Uint64(), r.Uint64()}
	seq2 := []uint64{snap.Uint64(), snap.Uint64(), snap.Uint64()}
	for i := range seq1 {
		if seq1[i] != seq2[i] {
			t.Fatal("snapshot replay diverged")
		}
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed must be remapped off the xorshift fixed point")
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %g out of [0,1)", f)
		}
	}
}

func TestRandIntn(t *testing.T) {
	r := NewRand(4)
	seen := make([]bool, 10)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Errorf("Intn never produced %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) must panic")
		}
	}()
	r.Intn(0)
}

func TestRandExp(t *testing.T) {
	r := NewRand(5)
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		d := r.Exp(100)
		if d < 1 {
			t.Fatalf("Exp draw %d below 1", d)
		}
		sum += float64(d)
	}
	mean := sum / n
	// Clamping at 1 biases the mean slightly above 100.
	if math.Abs(mean-100) > 10 {
		t.Errorf("Exp mean = %.1f, want ~100", mean)
	}
}

// stubObject is a minimal model.Object for Model validation tests.
type stubObject struct{ name string }

type stubState struct{}

func (stubState) Clone() State { return stubState{} }

func (o *stubObject) Name() string                         { return o.name }
func (o *stubObject) InitialState() State                  { return stubState{} }
func (o *stubObject) Init(Context, State)                  {}
func (o *stubObject) Execute(Context, State, *event.Event) {}

func mkModel(names []string, part []int) *Model {
	m := &Model{Partition: part}
	for _, n := range names {
		m.Objects = append(m.Objects, &stubObject{name: n})
	}
	return m
}

func TestModelValidate(t *testing.T) {
	good := mkModel([]string{"a", "b", "c"}, []int{0, 1, 0})
	if err := good.Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	if got := good.NumLPs(); got != 2 {
		t.Errorf("NumLPs = %d", got)
	}

	cases := []struct {
		name string
		m    *Model
	}{
		{"empty", mkModel(nil, nil)},
		{"partition size", mkModel([]string{"a", "b"}, []int{0})},
		{"negative LP", mkModel([]string{"a"}, []int{-1})},
		{"LP gap", mkModel([]string{"a", "b"}, []int{0, 2})},
		{"dup names", mkModel([]string{"a", "a"}, []int{0, 0})},
	}
	for _, c := range cases {
		if err := c.m.Validate(); err == nil {
			t.Errorf("%s: invalid model accepted", c.name)
		}
	}
}

// countedObject formats its name on demand, as the bundled models do, and
// counts how often it is asked.
type countedObject struct {
	stubObject
	id    int
	calls *int
}

func (o *countedObject) Name() string {
	*o.calls++
	return fmt.Sprintf("obj.%d", o.id)
}

// TestValidateDuplicateName: two objects with one name are errDupName wherever
// they sit among thousands, a model without such a pair passes, and the check
// asks each object for its name once.
func TestValidateDuplicateName(t *testing.T) {
	const n = 5000
	calls := 0
	m := &Model{Partition: make([]int, n)}
	for i := 0; i < n; i++ {
		m.Objects = append(m.Objects, &countedObject{id: i, calls: &calls})
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("%d distinct names rejected: %v", n, err)
	}
	if calls != n {
		t.Errorf("Validate formatted %d names for %d objects", calls, n)
	}
	m.Objects[n-7].(*countedObject).id = 3
	if err := m.Validate(); err != errDupName {
		t.Errorf("objects 3 and %d share a name: Validate returned %v, want %v", n-7, err, errDupName)
	}
}

// TestIndexedName: the names read as fmt.Sprintf("%s%d") gives them, a prefix
// longer than the buffer included, for one allocation each.
func TestIndexedName(t *testing.T) {
	long := "a.prefix.longer.than.the.forty.bytes.the.name.is.built.in."
	for _, prefix := range []string{"", "phold.", long} {
		for _, i := range []int{0, 7, 4095, 1 << 40, -3} {
			if got, want := IndexedName(prefix, i), fmt.Sprintf("%s%d", prefix, i); got != want {
				t.Errorf("IndexedName(%q, %d) = %q, want %q", prefix, i, got, want)
			}
		}
	}
	var name string
	if n := testing.AllocsPerRun(100, func() { name = IndexedName("smmp.cache.", 65535) }); n != 1 || name != "smmp.cache.65535" {
		t.Errorf("%q cost %.0f allocations, want 1", name, n)
	}
}

func TestNumLPsEmptyPartition(t *testing.T) {
	m := &Model{}
	if m.NumLPs() != 1 {
		t.Error("empty partition must report 1 LP")
	}
}

func TestRandUniformityProperty(t *testing.T) {
	// Chi-squared-ish sanity: bucket counts of Float64 stay near uniform.
	f := func(seed uint64) bool {
		r := NewRand(seed)
		const buckets, n = 8, 4000
		var counts [buckets]int
		for i := 0; i < n; i++ {
			counts[int(r.Float64()*buckets)]++
		}
		for _, c := range counts {
			if c < n/buckets/2 || c > n/buckets*2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
