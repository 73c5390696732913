package codec

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"gowarp/internal/model"
)

// refAppendDelta is the byte-at-a-time encoder AppendDelta replaced, kept as
// the reference: the block-wise search must emit exactly these bytes, so
// stored sizes, the codec controller's ratio and every recorded number that
// depends on them are unchanged.
func refAppendDelta(dst, old, new []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(new)))
	common := len(new)
	if len(old) < common {
		common = len(old)
	}
	i := 0
	for i < len(new) {
		skip := i
		for skip < common && old[skip] == new[skip] {
			skip++
		}
		j := skip
		for j < len(new) {
			if j < common && old[j] == new[j] {
				run := j
				for run < common && old[run] == new[run] {
					run++
				}
				if run-j >= minSkipRun || run == len(new) {
					break
				}
				j = run
				continue
			}
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(skip-i))
		dst = binary.AppendUvarint(dst, uint64(j-skip))
		dst = append(dst, new[skip:j]...)
		i = j
	}
	return dst
}

// coverings returns a few ways a DirtyState might report how new differs from
// old, which have equal lengths: every maximal differing run exactly; the runs
// widened by slack bytes on both sides, merged where they then meet; the whole
// encoding as one region; and — where the runs leave one — an empty region
// before the first and two abutting halves in place of the widest.
func coverings(old, new []byte, slack int) [][]Region {
	var exact, wide []Region
	for i := 0; i < len(new); i++ {
		if old[i] == new[i] {
			continue
		}
		j := i
		for j < len(new) && old[j] != new[j] {
			j++
		}
		exact = append(exact, Region{Off: i, Len: j - i})
		lo, hi := max(i-slack, 0), min(j+slack, len(new))
		if n := len(wide); n > 0 && wide[n-1].Off+wide[n-1].Len >= lo {
			lo = wide[n-1].Off
			wide = wide[:n-1]
		}
		wide = append(wide, Region{Off: lo, Len: hi - lo})
		i = j
	}
	out := [][]Region{exact, wide, {{Len: len(new)}}}
	if len(wide) > 0 {
		split := []Region{{Off: wide[0].Off}}
		for _, r := range wide {
			split = append(split, Region{Off: r.Off, Len: r.Len / 2}, Region{Off: r.Off + r.Len/2, Len: r.Len - r.Len/2})
		}
		out = append(out, split)
	}
	return out
}

// checkDelta is the property the table test and the fuzz target share:
// AppendDelta equals the reference encoder, PatchRegions reaches the same
// bytes and the same encoding from any covering of the difference, and the
// copying and in-place decoders both reproduce new without the copying one
// touching old.
func checkDelta(t *testing.T, old, new []byte) {
	t.Helper()
	d := AppendDelta(nil, old, new)
	if ref := refAppendDelta(nil, old, new); !bytes.Equal(d, ref) {
		t.Fatalf("AppendDelta differs from the reference encoder:\n got %x\nwant %x", d, ref)
	}
	if len(old) == len(new) {
		for _, at := range coverings(old, new, 1+len(new)%7) {
			var data []byte
			for _, r := range at {
				data = append(data, new[r.Off:r.Off+r.Len]...)
			}
			enc := append([]byte(nil), old...)
			got, err := PatchRegions(nil, enc, at, data)
			if err != nil || !bytes.Equal(enc, new) {
				t.Fatalf("PatchRegions over %v: err %v, encoding patched to %x, want %x", at, err, enc, new)
			}
			if !bytes.Equal(got, d) {
				t.Fatalf("PatchRegions over %v differs from AppendDelta:\n got %x\nwant %x", at, got, d)
			}
		}
	}
	keep := append([]byte(nil), old...)
	got, err := ApplyDelta(old, d)
	if err != nil || !bytes.Equal(got, new) {
		t.Fatalf("ApplyDelta: err %v, %d bytes out, want %d", err, len(got), len(new))
	}
	if !bytes.Equal(old, keep) {
		t.Fatal("ApplyDelta modified old")
	}
	if len(got) > 0 && len(old) > 0 && &got[0] == &old[0] {
		t.Fatal("ApplyDelta result aliases old")
	}
	// In place, with and without room to grow.
	for _, spare := range []int{0, len(new)} {
		buf := append(make([]byte, 0, len(old)+spare), old...)
		got, err := PatchDelta(buf, d)
		if err != nil || !bytes.Equal(got, new) {
			t.Fatalf("PatchDelta (spare %d): err %v, %d bytes out, want %d", spare, err, len(got), len(new))
		}
		if len(new) > 0 && len(new) <= cap(buf) && &got[0] != &buf[:1][0] {
			t.Fatalf("PatchDelta (spare %d) reallocated a buffer the result fits in", spare)
		}
	}
}

func TestDeltaTable(t *testing.T) {
	r := model.NewRand(11)
	base := randBytes(&r, 3*matchBlock)
	// flip returns base with the bytes in each [from, to) range changed.
	flip := func(ranges ...[2]int) []byte {
		out := append([]byte(nil), base...)
		for _, rg := range ranges {
			for i := rg[0]; i < rg[1]; i++ {
				out[i] ^= 0x5a
			}
		}
		return out
	}
	b := matchBlock
	cases := []struct {
		name     string
		old, new []byte
	}{
		{"identical", base, base},
		{"grow", base[:100], base},
		{"grow by a changed tail", base[:100], flip([2]int{90, 300})},
		{"shrink", base, base[:100]},
		{"shrink to a changed prefix", base, flip([2]int{3, 9})[:100]},
		{"empty old", nil, base},
		{"empty new", base, nil},
		{"both empty", nil, nil},
		{"everything changed", base, flip([2]int{0, len(base)})},
		{"first and last byte", base, flip([2]int{0, 1}, [2]int{len(base) - 1, len(base)})},
		// Equal gaps one shorter than, equal to and longer than minSkipRun,
		// each straddling the boundary between two blocks.
		{"gap 3 across a block boundary", base, flip([2]int{b - 10, b - 1}, [2]int{b + 2, b + 9})},
		{"gap 4 across a block boundary", base, flip([2]int{b - 10, b - 2}, [2]int{b + 2, b + 9})},
		{"gap 5 across a block boundary", base, flip([2]int{b - 10, b - 2}, [2]int{b + 3, b + 9})},
		{"gap 3 then the end", base, flip([2]int{len(base) - 10, len(base) - 3})},
		{"gap of a whole block", base, flip([2]int{b - 1, b}, [2]int{2 * b, 2*b + 1})},
		{"changed run across a block boundary", base, flip([2]int{b - 5, b + 5})},
		{"short equal tail past old", base[:b+2], flip([2]int{b - 1, b})},
		{"word-sized buffers", base[:8], flip([2]int{7, 8})[:8]},
		{"sub-word buffers", base[:5], flip([2]int{2, 3})[:5]},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkDelta(t, c.old, c.new) })
	}
}

// TestPatchRegionsRejects: a report that is out of order, overlapping, outside
// the encoding or of the wrong total length is refused before a byte moves.
func TestPatchRegionsRejects(t *testing.T) {
	cases := []struct {
		name string
		at   []Region
		data int
	}{
		{"past the end", []Region{{Off: 6, Len: 3}}, 3},
		{"offset past the end", []Region{{Off: 9}}, 0},
		{"negative length", []Region{{Off: 4, Len: -1}}, 0},
		{"negative offset", []Region{{Off: -1, Len: 2}}, 2},
		{"descending", []Region{{Off: 4, Len: 2}, {Off: 0, Len: 2}}, 4},
		{"overlapping", []Region{{Off: 0, Len: 4}, {Off: 3, Len: 2}}, 6},
		{"short data", []Region{{Off: 0, Len: 4}}, 3},
		{"long data", []Region{{Off: 0, Len: 4}}, 5},
		{"huge length", []Region{{Off: 1, Len: int(^uint(0) >> 1)}}, 0},
	}
	for _, c := range cases {
		enc := []byte("ABCDEFGH")
		dst, err := PatchRegions(nil, enc, c.at, bytes.Repeat([]byte{'x'}, c.data))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if string(enc) != "ABCDEFGH" || len(dst) != 0 {
			t.Errorf("%s: refused, but the encoding reads %q and %d bytes of delta were appended", c.name, enc, len(dst))
		}
	}
}

// TestDeltaCorruptPaths drives one delta into each corruption check of the
// decoder. old is 8 bytes; op(skip, changed, bytes...) spells one op.
func TestDeltaCorruptPaths(t *testing.T) {
	old := []byte("ABCDEFGH")
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	huge := uv(1<<64 - 1)
	cases := []struct {
		name  string
		delta []byte
		want  string
	}{
		{"empty", nil, "delta header"},
		{"overlong header", bytes.Repeat([]byte{0xff}, 11), "delta header"},
		{"length beyond old plus stream", cat(uv(100), uv(8), uv(0)), "delta length"},
		{"length near 2^64", cat(huge, uv(8), uv(0)), "delta length"},
		{"missing skip", uv(8), "delta skip"},
		{"missing changed", cat(uv(8), uv(2)), "delta run"},
		{"changed past the stream", cat(uv(8), uv(2), uv(5), []byte("xy")), "delta run"},
		{"changed near 2^64", cat(uv(8), uv(2), huge), "delta run"},
		{"skip past old", cat(uv(10), uv(9), uv(1), []byte("x")), "delta skip range"},
		{"skip near 2^64", cat(uv(9), uv(1), uv(1), []byte("x"), huge, uv(0)), "delta skip range"},
		{"op starting past old", cat(uv(12), uv(8), uv(2), []byte("xy"), uv(0), uv(2), []byte("zw")), "delta skip range"},
		{"overshoot", cat(uv(5), uv(4), uv(3), []byte("xyz")), "delta length"},
		{"trailing bytes", cat(uv(8), uv(8), uv(0), []byte{0}), "delta length"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, errA := ApplyDelta(old, c.delta)
			_, errP := PatchDelta(append([]byte(nil), old...), c.delta)
			for _, err := range []error{errA, errP} {
				if err == nil || !strings.HasSuffix(err.Error(), "corrupt "+c.want) {
					t.Fatalf("err = %v, want corrupt %s", err, c.want)
				}
			}
		})
	}
}

// FuzzDelta: any (old, new) pair encodes exactly as the reference encoder
// does and decodes both ways; any junk offered as a delta is rejected or
// applied without a panic, identically by both decoders.
func FuzzDelta(f *testing.F) {
	r := model.NewRand(5)
	big := randBytes(&r, 2*matchBlock+17)
	edit := append([]byte(nil), big...)
	edit[3]++
	edit[matchBlock-1]++
	edit[matchBlock+3]++
	f.Add([]byte(nil), []byte(nil), []byte(nil))
	f.Add(big, edit, AppendDelta(nil, big, edit))
	f.Add(big, big[:40], []byte{40, 40, 0})
	f.Add(big[:40], edit, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0, 0})
	f.Fuzz(func(t *testing.T, old, new, junk []byte) {
		checkDelta(t, old, new)
		// Equal lengths are what the region encoder takes.
		n := min(len(old), len(new))
		checkDelta(t, old[:n], new[:n])
		gotA, errA := ApplyDelta(old, junk)
		gotP, errP := PatchDelta(append([]byte(nil), old...), junk)
		if (errA == nil) != (errP == nil) || !bytes.Equal(gotA, gotP) {
			t.Fatalf("decoders disagree on junk: copy (%x, %v), in place (%x, %v)", gotA, errA, gotP, errP)
		}
	})
}

// deltaBenchInput is the layer benchmark's shape: a 16 KiB encoding of random
// bytes with 1% of them dirty.
func deltaBenchInput() (old, cur []byte) {
	const size = 16 << 10
	r := model.NewRand(9)
	old = randBytes(&r, size)
	cur = append([]byte(nil), old...)
	for i := 0; i < size/100; i++ {
		cur[r.Intn(size)]++
	}
	return old, cur
}

var benchSink []byte

func BenchmarkAppendDelta16k(b *testing.B) {
	old, cur := deltaBenchInput()
	b.SetBytes(int64(len(cur)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = AppendDelta(benchSink[:0], old, cur)
	}
}

func BenchmarkApplyDelta16k(b *testing.B) {
	old, cur := deltaBenchInput()
	delta := AppendDelta(nil, old, cur)
	b.SetBytes(int64(len(cur)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := ApplyDelta(old, delta)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = out
	}
}

// BenchmarkPatchRegionsDelta16k is the save of a padded model state that says
// what it dirtied: of a 16 KiB encoding the 32-byte head is reported and three
// of its four counters have moved.
func BenchmarkPatchRegionsDelta16k(b *testing.B) {
	enc, _ := deltaBenchInput()
	at := []Region{{Len: 32}}
	head := make([]byte, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(head, uint64(i)*0x9E3779B97F4A7C15)
		binary.LittleEndian.PutUint64(head[8:], uint64(i))
		binary.LittleEndian.PutUint64(head[24:], uint64(3*i))
		var err error
		if benchSink, err = PatchRegions(benchSink[:0], enc, at, head); err != nil {
			b.Fatal(err)
		}
	}
}
