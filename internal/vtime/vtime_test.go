package vtime

import (
	"testing"
	"testing/quick"
)

func TestConstants(t *testing.T) {
	if !NegInf.Before(Zero) || !Zero.Before(PosInf) {
		t.Fatal("ordering of sentinels broken")
	}
	if PosInf.IsFinite() || NegInf.IsFinite() {
		t.Error("infinities must not be finite")
	}
	if !Zero.IsFinite() || !Time(42).IsFinite() {
		t.Error("finite values must be finite")
	}
}

func TestMinMax(t *testing.T) {
	cases := []struct {
		a, b, min, max Time
	}{
		{1, 2, 1, 2},
		{2, 1, 1, 2},
		{5, 5, 5, 5},
		{NegInf, 7, NegInf, 7},
		{PosInf, 7, 7, PosInf},
		{NegInf, PosInf, NegInf, PosInf},
	}
	for _, c := range cases {
		if got := Min(c.a, c.b); got != c.min {
			t.Errorf("Min(%s,%s) = %s, want %s", c.a, c.b, got, c.min)
		}
		if got := Max(c.a, c.b); got != c.max {
			t.Errorf("Max(%s,%s) = %s, want %s", c.a, c.b, got, c.max)
		}
	}
}

func TestAddSaturation(t *testing.T) {
	cases := []struct {
		a, d, want Time
	}{
		{10, 5, 15},
		{10, -5, 5},
		{PosInf, 1, PosInf},
		{PosInf, -1, PosInf},
		{NegInf, 1, NegInf},
		{1, PosInf, PosInf},
		{1, NegInf, NegInf},
		{PosInf - 1, 100, PosInf},              // overflow saturates up
		{NegInf + 1, -100, NegInf},             // overflow saturates down
		{Time(1) << 62, Time(1) << 62, PosInf}, // large positive overflow
	}
	for _, c := range cases {
		if got := c.a.Add(c.d); got != c.want {
			t.Errorf("%s.Add(%s) = %s, want %s", c.a, c.d, got, c.want)
		}
	}
}

func TestAddNeverWrapsProperty(t *testing.T) {
	// Adding a non-negative delay never yields a smaller time.
	f := func(a int64, d uint32) bool {
		t0 := Time(a)
		got := t0.Add(Time(d))
		return !got.Before(t0) || t0 == PosInf
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	if PosInf.String() != "+inf" || NegInf.String() != "-inf" {
		t.Error("infinity rendering broken")
	}
	if Time(17).String() != "17" {
		t.Errorf("Time(17).String() = %q", Time(17).String())
	}
	for _, v := range []Time{PosInf, NegInf, 0, 17, -3} {
		if got, err := Parse(v.String()); err != nil || got != v {
			t.Errorf("Parse(%q) = %d, %v", v.String(), got, err)
		}
	}
	if _, err := Parse("soon"); err == nil {
		t.Error(`Parse("soon") succeeded`)
	}
}

func TestBeforeAfter(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := Time(a), Time(b)
		if x == y {
			return !x.Before(y) && !x.After(y)
		}
		return x.Before(y) != x.After(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
