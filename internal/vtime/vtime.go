// Package vtime implements virtual time for Time Warp synchronized
// simulations, following Jefferson's Virtual Time model. Virtual time values
// are totally ordered scalars with distinguished -infinity and +infinity
// points. The package also provides the composite ordering key used to break
// ties between events carrying equal timestamps, which Time Warp needs so
// that every kernel (sequential or parallel, before or after a rollback)
// processes events in exactly the same total order.
package vtime

import (
	"fmt"
	"math"
	"strconv"
)

// Time is a point in virtual time. The zero value is the start of the
// simulation. Negative values below NegInf and values above PosInf are not
// representable; the two infinities are reserved sentinels.
type Time int64

const (
	// Zero is the beginning of simulated time.
	Zero Time = 0
	// PosInf is the virtual time reached only when the simulation has no
	// further work to do; it compares greater than every finite time.
	PosInf Time = math.MaxInt64
	// NegInf compares smaller than every finite time. It is used as the
	// "no messages sent yet" marker in GVT accounting.
	NegInf Time = math.MinInt64
)

// IsFinite reports whether t is neither PosInf nor NegInf.
func (t Time) IsFinite() bool { return t != PosInf && t != NegInf }

// Before reports whether t is strictly earlier than u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t is strictly later than u.
func (t Time) After(u Time) bool { return t > u }

// Min returns the earlier of t and u.
func Min(t, u Time) Time {
	if t < u {
		return t
	}
	return u
}

// Max returns the later of t and u.
func Max(t, u Time) Time {
	if t > u {
		return t
	}
	return u
}

// Add returns t advanced by d, saturating at PosInf so that delays added to
// an already-infinite time remain infinite and finite arithmetic cannot
// accidentally wrap into the sentinel range.
func (t Time) Add(d Time) Time {
	if t == PosInf || d == PosInf {
		return PosInf
	}
	if t == NegInf || d == NegInf {
		return NegInf
	}
	s := t + d
	// Saturate on overflow in either direction.
	if d > 0 && s < t {
		return PosInf
	}
	if d < 0 && s > t {
		return NegInf
	}
	return s
}

// String renders infinities symbolically and finite times as integers.
func (t Time) String() string {
	switch t {
	case PosInf:
		return "+inf"
	case NegInf:
		return "-inf"
	default:
		return fmt.Sprintf("%d", int64(t))
	}
}

// Parse reads a time as String renders it.
func Parse(s string) (Time, error) {
	switch s {
	case "+inf":
		return PosInf, nil
	case "-inf":
		return NegInf, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("vtime: %q is not a virtual time", s)
	}
	return Time(v), nil
}
