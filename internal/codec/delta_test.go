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

// checkDelta is the property the table test and the fuzz target share:
// AppendDelta equals the reference encoder, and the copying and in-place
// decoders both reproduce new without the copying one touching old.
func checkDelta(t *testing.T, old, new []byte) {
	t.Helper()
	d := AppendDelta(nil, old, new)
	if ref := refAppendDelta(nil, old, new); !bytes.Equal(d, ref) {
		t.Fatalf("AppendDelta differs from the reference encoder:\n got %x\nwant %x", d, ref)
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
