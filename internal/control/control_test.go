package control

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTicker(t *testing.T) {
	tk := NewTicker(3)
	fired := 0
	for i := 0; i < 9; i++ {
		if tk.Tick() {
			fired++
		}
	}
	if fired != 3 {
		t.Errorf("fired %d times in 9 ticks with period 3", fired)
	}
	if tk.Period() != 3 {
		t.Errorf("Period = %d", tk.Period())
	}
	tk.Tick()
	tk.Reset()
	for i := 0; i < 2; i++ {
		if tk.Tick() {
			t.Error("fired before a full period after Reset")
		}
	}
}

func TestTickerDegenerate(t *testing.T) {
	for _, p := range []int{0, 1, -5} {
		tk := NewTicker(p)
		if !tk.Tick() {
			t.Errorf("period %d must fire every tick", p)
		}
	}
}

func TestDeadZone(t *testing.T) {
	dz := NewDeadZone(0.2, 0.45, false)
	steps := []struct {
		in   float64
		want bool
	}{
		{0.3, false}, // dead zone holds initial state
		{0.5, true},  // crosses upper
		{0.3, true},  // dead zone holds high
		{0.21, true}, // still inside
		{0.1, false}, // crosses lower
		{0.44, false},
		{0.46, true},
	}
	for i, s := range steps {
		if got := dz.Input(s.in); got != s.want {
			t.Errorf("step %d: Input(%g) = %v, want %v", i, s.in, got, s.want)
		}
	}
	if !dz.High() {
		t.Error("High() disagrees with last output")
	}
}

func TestDeadZoneSingleThreshold(t *testing.T) {
	// A2L == L2A eliminates the dead zone (the paper's ST variant).
	dz := NewDeadZone(0.4, 0.4, false)
	if dz.Input(0.41) != true {
		t.Error("above threshold must switch high")
	}
	if dz.Input(0.39) != false {
		t.Error("below threshold must switch low")
	}
	if dz.Input(0.4) != false {
		t.Error("exactly at threshold holds state")
	}
}

func TestBitWindow(t *testing.T) {
	w := BitWindowOver(make([]bool, 4))
	if w.Ratio() != 0 || w.Len() != 0 || w.Depth() != 4 {
		t.Fatal("fresh window misbehaves")
	}
	for _, v := range []bool{true, false, true, true} {
		w.Push(v)
	}
	if got := w.Ratio(); got != 0.75 {
		t.Errorf("Ratio = %g, want 0.75", got)
	}
	// Overwrite oldest (true) with false: 2/4.
	w.Push(false)
	if got := w.Ratio(); got != 0.5 {
		t.Errorf("Ratio after wrap = %g, want 0.5", got)
	}
	if w.Total() != 5 {
		t.Errorf("Total = %d", w.Total())
	}
	if w.FalseRun() != 1 {
		t.Errorf("FalseRun = %d", w.FalseRun())
	}
	w.Push(false)
	w.Push(false)
	if w.FalseRun() != 3 {
		t.Errorf("FalseRun = %d, want 3", w.FalseRun())
	}
	w.Push(true)
	if w.FalseRun() != 0 {
		t.Errorf("FalseRun after hit = %d, want 0", w.FalseRun())
	}
}

func TestBitWindowRatioMatchesNaive(t *testing.T) {
	f := func(depth uint8, bits []bool) bool {
		d := int(depth%16) + 1
		w := BitWindowOver(make([]bool, d))
		for _, b := range bits {
			w.Push(b)
		}
		// Naive recompute over the last d samples.
		start := len(bits) - d
		if start < 0 {
			start = 0
		}
		trues, n := 0, 0
		for _, b := range bits[start:] {
			n++
			if b {
				trues++
			}
		}
		want := 0.0
		if n > 0 {
			want = float64(trues) / float64(n)
		}
		return math.Abs(w.Ratio()-want) < 1e-12 && w.Len() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIntParamClamps(t *testing.T) {
	p := IntParam{Value: 3, Min: 1, Max: 4, Step: 2}
	p.Inc()
	if p.Value != 4 {
		t.Errorf("Inc clamp: %d", p.Value)
	}
	p.Dec()
	p.Dec()
	if p.Value != 1 {
		t.Errorf("Dec clamp: %d", p.Value)
	}
}

// costCurve is a convex single-minimum cost function of the parameter, the
// regime the Section 4 controller assumes.
func costCurve(x, opt int) float64 {
	d := float64(x - opt)
	return 100 + d*d
}

func TestIncUnlessWorseConverges(t *testing.T) {
	for _, opt := range []int{2, 8, 20} {
		p := IntParam{Value: 1, Min: 1, Max: 32, Step: 1}
		tr := &IncUnlessWorse{Margin: 0.001}
		visits := make(map[int]int)
		for i := 0; i < 400; i++ {
			tr.Observe(costCurve(p.Value, opt), &p)
			visits[p.Value]++
		}
		// The parameter must spend most of its time near the optimum.
		near := 0
		for x, n := range visits {
			if x >= opt-3 && x <= opt+3 {
				near += n
			}
		}
		if near < 200 {
			t.Errorf("opt=%d: only %d/400 visits near optimum (visits %v)", opt, near, visits)
		}
	}
}

func TestTransfersTolerateNoise(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	p := IntParam{Value: 1, Min: 1, Max: 64, Step: 1}
	tr := &IncUnlessWorse{Margin: 0.05}
	opt := 12
	sum, n := 0, 0
	for i := 0; i < 2000; i++ {
		noisy := costCurve(p.Value, opt) * (1 + 0.02*r.Float64())
		tr.Observe(noisy, &p)
		if i > 500 {
			sum += p.Value
			n++
		}
	}
	mean := float64(sum) / float64(n)
	if mean < float64(opt)-6 || mean > float64(opt)+6 {
		t.Errorf("noisy convergence mean %.1f, want near %d", mean, opt)
	}
}
