package codec

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// This file is the sparse binary delta: the incremental-checkpoint
// encoding. A delta stands between the previous checkpoint's full encoding
// (old) and the new one, spending bytes only on changed regions — for the
// padded kernel states, a few counters out of kilobytes. It stores the changed
// bytes XORed with what they were, so one delta works both ways: applied to
// old it gives new, and undone from new it gives old. That is what lets a
// state queue keep one whole image, the newest, and walk back from it.
//
// Format:
//
//	uvarint(oldLen) uvarint(newLen)
//	runs, in ascending order, to the end of the delta:
//	  uvarint(skip)     — bytes equal in old and new
//	  uvarint(changed)  — bytes the run spans, equal gaps too short to
//	                      break it included
//	  <changed bytes of old XOR new>
//
// A byte past either end of an encoding reads as 0. The runs cover every
// byte past the shorter encoding's end, so a delta is never shorter than the
// change in length it makes, and the bytes past the end of the shorter one
// are XORed with 0: a grown tail is stored as it is, a dropped one as it was.

// minSkipRun is the shortest equal run worth breaking a changed run for:
// shorter gaps cost more in op headers than they save.
const minSkipRun = 4

// matchBlock is the unit of the coarse equal-run search: large enough that
// the vectorized bytes.Equal runs at memory speed, small enough that the
// word loops locating the difference inside a block stay short.
const matchBlock = 256

// matchLen returns the length of the common prefix of a and b, which must
// have equal lengths: whole blocks first, then 8-byte words four at a time,
// then single words, then bytes. The loops re-slice instead of indexing so
// the compiler drops their bounds checks.
func matchLen(a, b []byte) int {
	n := len(a)
	for len(a) >= matchBlock && bytes.Equal(a[:matchBlock], b[:matchBlock]) {
		a, b = a[matchBlock:], b[matchBlock:]
	}
	le := binary.LittleEndian
	for len(a) >= 32 && len(b) >= 32 {
		if (le.Uint64(a)^le.Uint64(b))|(le.Uint64(a[8:])^le.Uint64(b[8:]))|
			(le.Uint64(a[16:])^le.Uint64(b[16:]))|(le.Uint64(a[24:])^le.Uint64(b[24:])) != 0 {
			break
		}
		a, b = a[32:], b[32:]
	}
	for len(a) >= 8 && len(b) >= 8 {
		if x := le.Uint64(a) ^ le.Uint64(b); x != 0 {
			return n - len(a) + bits.TrailingZeros64(x)>>3
		}
		a, b = a[8:], b[8:]
	}
	for len(a) > 0 && len(b) > 0 && a[0] == b[0] {
		a, b = a[1:], b[1:]
	}
	return n - len(a)
}

// AppendDelta appends a delta between old and new and returns the extended
// slice. PatchDelta and ApplyDelta go forward with it, from old to new;
// UndoDelta goes back.
func AppendDelta(dst, old, new []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(old)))
	dst = binary.AppendUvarint(dst, uint64(len(new)))
	common := min(len(old), len(new))
	span := max(len(old), len(new))
	a, b := old[:common], new[:common]
	// [i, skip) is the equal run opening the next op.
	i, skip := 0, matchLen(a, b)
	for skip < span {
		// Changed run: advance past differences, swallowing equal gaps
		// shorter than minSkipRun. next is where the equal run that ended
		// the changed run ends in turn.
		j, next := skip, skip
		for j < span {
			if j < common && a[j] == b[j] {
				next = j + matchLen(a[j:], b[j:])
				if next-j >= minSkipRun || next == span {
					break
				}
				j = next
				continue
			}
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(skip-i))
		dst = binary.AppendUvarint(dst, uint64(j-skip))
		for k := skip; k < j; k++ {
			var c byte // a byte past either end reads as 0
			if k < len(old) {
				c = old[k]
			}
			if k < len(new) {
				c ^= new[k]
			}
			dst = append(dst, c)
		}
		if j == span {
			break
		}
		i, skip = j, next
	}
	return dst
}

// PatchRegions is AppendDelta for an encoding known to differ from its
// predecessor inside the regions at only. enc holds the predecessor and data
// what DirtyState.MarshalDirty appended, the regions' current bytes end to end:
// enc is brought up to date where it lies, and dst is extended by exactly the
// bytes AppendDelta would append for the two whole encodings — a byte a region
// holds unchanged costs nothing to store, and equal gaps shorter than
// minSkipRun are swallowed across region boundaries too — having read the
// regions alone. Nothing is touched unless the regions are ascending,
// disjoint, inside enc and as long together as data.
func PatchRegions(dst, enc []byte, at []Region, data []byte) ([]byte, error) {
	end, total := 0, 0
	for _, r := range at {
		if r.Len < 0 || r.Off < end || r.Len > len(enc)-r.Off {
			return dst, corrupt("dirty regions")
		}
		end, total = r.Off+r.Len, total+r.Len
	}
	if total != len(data) {
		return dst, corrupt("dirty region data")
	}
	dst = binary.AppendUvarint(dst, uint64(len(enc)))
	dst = binary.AppendUvarint(dst, uint64(len(enc)))
	// enc[:i] is encoded; [from, to) is the changed run still growing, empty
	// when there is none, and its bytes so far lie at dst[run:], waiting for
	// the header closeRun puts in front of them. A byte is XORed into the run
	// as it is found and patched where it lies, so the run needs nothing of
	// what came before it once it has passed.
	i, from, to, run := 0, 0, 0, 0
	for _, r := range at {
		was, now := enc[r.Off:r.Off+r.Len], data[:r.Len]
		data = data[r.Len:]
		for k := matchLen(was, now); k < len(now); k += matchLen(was[k:], now[k:]) {
			a := r.Off + k
			if to > from && a-to >= minSkipRun {
				dst = closeRun(dst, run, from-i, to-from)
				i, from = to, to
			}
			if to == from {
				from, run = a, len(dst)
			} else {
				dst = append(dst, make([]byte, a-to)...) // the equal gap it swallows
			}
			for ; k < len(now) && was[k] != now[k]; k++ {
				dst = append(dst, was[k]^now[k])
				was[k] = now[k]
			}
			to = r.Off + k
		}
	}
	if to > from {
		dst = closeRun(dst, run, from-i, to-from)
	}
	return dst, nil
}

// closeRun puts the header of one run — skip bytes equal, then n changed —
// in front of the run's n bytes, which end dst from at.
func closeRun(dst []byte, at, skip, n int) []byte {
	var hdr [2 * binary.MaxVarintLen64]byte
	h := binary.PutUvarint(hdr[:], uint64(skip))
	h += binary.PutUvarint(hdr[h:], uint64(n))
	dst = append(dst, hdr[:h]...)
	copy(dst[at+h:], dst[at:at+n])
	copy(dst[at:], hdr[:h])
	return dst
}

// PatchDelta applies a delta produced by AppendDelta in place, forward: buf
// holds the old encoding and the returned slice, which reuses buf's storage
// unless the new encoding outgrows its capacity, holds the new one. Skipped
// bytes are already where they belong, so the cost is the changed bytes alone.
// On error buf's contents are unspecified.
func PatchDelta(buf, delta []byte) ([]byte, error) { return xorDelta(buf, delta, false) }

// UndoDelta is PatchDelta backward: buf holds the new encoding, and the
// returned slice the old one.
func UndoDelta(buf, delta []byte) ([]byte, error) { return xorDelta(buf, delta, true) }

// xorDelta is PatchDelta, or UndoDelta when back is set. It rejects a base
// whose length is not the one the header gives it, a run past the end of the
// longer encoding, and a dropped tail that does not come out 0.
func xorDelta(buf, delta []byte, back bool) ([]byte, error) {
	from, k := binary.Uvarint(delta)
	if k <= 0 {
		return nil, corrupt("delta header")
	}
	delta = delta[k:]
	to, k := binary.Uvarint(delta)
	if k <= 0 {
		return nil, corrupt("delta header")
	}
	delta = delta[k:]
	if back {
		from, to = to, from
	}
	if from != uint64(len(buf)) {
		return nil, corrupt("delta base")
	}
	// The runs carry every byte a grown encoding gains, so a larger claim is
	// corrupt — checked before anything is sized from it.
	if to > from && to-from > uint64(len(delta)) {
		return nil, corrupt("delta length")
	}
	span := int(max(from, to))
	if span > len(buf) {
		buf = append(buf, make([]byte, span-len(buf))...)
	}
	at := 0
	for len(delta) > 0 {
		skip, k := binary.Uvarint(delta)
		if k <= 0 {
			return nil, corrupt("delta skip")
		}
		delta = delta[k:]
		changed, k := binary.Uvarint(delta)
		if k <= 0 || uint64(len(delta)-k) < changed {
			return nil, corrupt("delta run")
		}
		if skip > uint64(span-at) || changed > uint64(span-at)-skip {
			return nil, corrupt("delta run range")
		}
		at += int(skip)
		for _, c := range delta[k : k+int(changed)] {
			buf[at] ^= c
			at++
		}
		delta = delta[k+int(changed):]
	}
	for _, c := range buf[to:] {
		if c != 0 {
			return nil, corrupt("delta tail")
		}
	}
	return buf[:to], nil
}

// ApplyDelta reconstructs the new encoding from old and a delta produced
// by AppendDelta. The result never aliases old.
func ApplyDelta(old, delta []byte) ([]byte, error) {
	return PatchDelta(append([]byte(nil), old...), delta)
}
