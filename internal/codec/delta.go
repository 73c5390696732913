package codec

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// This file is the sparse binary delta: the incremental-checkpoint
// encoding. A delta transforms the previous checkpoint's full encoding
// (old) into the new one, spending bytes only on changed regions — for the
// padded kernel states, a few counters out of kilobytes. Unlike a raw XOR
// image, the sparse form shrinks on its own; compression on top is gravy.
//
// Format:
//
//	uvarint(newLen)
//	repeated pairs until newLen bytes are produced:
//	  uvarint(skip)     — bytes copied verbatim from old
//	  uvarint(changed)  — bytes taken from the delta stream
//	  <changed bytes>
//
// Positions past len(old) are by definition changed.

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

// AppendDelta appends a delta transforming old into new and returns the
// extended slice. PatchDelta and ApplyDelta invert it.
func AppendDelta(dst, old, new []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(new)))
	common := len(new)
	if len(old) < common {
		common = len(old)
	}
	old, cmp := old[:common], new[:common]
	// [i, skip) is the equal run opening the next op.
	i, skip := 0, matchLen(old, cmp)
	for i < len(new) {
		// Changed run: advance past differences, swallowing equal gaps
		// shorter than minSkipRun. next is where the equal run that ended
		// the changed run ends in turn.
		j, next := skip, skip
		for j < len(new) {
			if j < common && old[j] == cmp[j] {
				next = j + matchLen(old[j:], cmp[j:])
				if next-j >= minSkipRun || next == len(new) {
					break
				}
				j = next
				continue
			}
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(skip-i))
		dst = binary.AppendUvarint(dst, uint64(j-skip))
		dst = append(dst, new[skip:j]...)
		i, skip = j, next
	}
	return dst
}

// appendRun appends one op of a delta: skip bytes kept, then changed.
func appendRun(dst, changed []byte, skip int) []byte {
	dst = binary.AppendUvarint(dst, uint64(skip))
	dst = binary.AppendUvarint(dst, uint64(len(changed)))
	return append(dst, changed...)
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
	// enc[:i] is encoded; [from, to) is the changed run still growing, empty
	// when there is none. Its bytes are patched as they are found, so a run is
	// read back from enc whichever regions and gaps it crosses.
	i, from, to := 0, 0, 0
	for _, r := range at {
		was, now := enc[r.Off:r.Off+r.Len], data[:r.Len]
		data = data[r.Len:]
		for k := matchLen(was, now); k < len(now); k += matchLen(was[k:], now[k:]) {
			a := r.Off + k
			for ; k < len(now) && was[k] != now[k]; k++ {
				was[k] = now[k]
			}
			if to > from && a-to >= minSkipRun {
				dst = appendRun(dst, enc[from:to], from-i)
				i, from = to, to
			}
			if to == from {
				from = a
			}
			to = r.Off + k
		}
	}
	if to > from {
		dst = appendRun(dst, enc[from:to], from-i)
		i = to
	}
	if i < len(enc) {
		dst = appendRun(dst, nil, len(enc)-i)
	}
	return dst, nil
}

// PatchDelta applies a delta produced by AppendDelta in place: buf holds the
// old encoding and the returned slice, which reuses buf's storage unless the
// new encoding outgrows its capacity, holds the new one. Skipped bytes are
// already where they belong, so the cost is the changed bytes alone. On
// error buf's contents are unspecified.
func PatchDelta(buf, delta []byte) ([]byte, error) {
	want, k := binary.Uvarint(delta)
	if k <= 0 {
		return nil, corrupt("delta header")
	}
	delta = delta[k:]
	oldLen := len(buf)
	// Every output byte comes from old or from the delta stream, so a larger
	// claim is corrupt — checked before anything is sized from it.
	if want > uint64(oldLen)+uint64(len(delta)) {
		return nil, corrupt("delta length")
	}
	at := 0
	for uint64(at) < want {
		skip, k := binary.Uvarint(delta)
		if k <= 0 {
			return nil, corrupt("delta skip")
		}
		delta = delta[k:]
		changed, k := binary.Uvarint(delta)
		if k <= 0 || uint64(len(delta)-k) < changed {
			return nil, corrupt("delta run")
		}
		if at > oldLen || skip > uint64(oldLen-at) {
			return nil, corrupt("delta skip range")
		}
		at += int(skip)
		run := delta[k : k+int(changed)]
		delta = delta[k+int(changed):]
		if at+len(run) > len(buf) {
			buf = append(buf[:at], run...)
		} else {
			copy(buf[at:], run)
		}
		at += len(run)
	}
	if uint64(at) != want || len(delta) != 0 {
		return nil, corrupt("delta length")
	}
	return buf[:at], nil
}

// ApplyDelta reconstructs the new encoding from old and a delta produced
// by AppendDelta. The result never aliases old.
func ApplyDelta(old, delta []byte) ([]byte, error) {
	return PatchDelta(append([]byte(nil), old...), delta)
}
