package codec

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"gowarp/internal/model"
)

// refAppendDelta is a byte-at-a-time encoder of the delta format, kept as the
// reference: AppendDelta's block-wise search, and PatchRegions, must emit
// exactly these bytes. A byte past either end reads as 0 and every byte past
// the shorter end is a changed one.
func refAppendDelta(dst, old, new []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(old)))
	dst = binary.AppendUvarint(dst, uint64(len(new)))
	span := max(len(old), len(new))
	at := func(b []byte, i int) byte {
		if i < len(b) {
			return b[i]
		}
		return 0
	}
	equal := func(i int) bool { return i < min(len(old), len(new)) && old[i] == new[i] }
	i := 0
	for {
		skip := i
		for skip < span && equal(skip) {
			skip++
		}
		if skip == span {
			return dst
		}
		j := skip
		for j < span {
			if equal(j) {
				run := j
				for run < span && equal(run) {
					run++
				}
				if run-j >= minSkipRun || run == span {
					break
				}
				j = run
				continue
			}
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(skip-i))
		dst = binary.AppendUvarint(dst, uint64(j-skip))
		for k := skip; k < j; k++ {
			dst = append(dst, at(old, k)^at(new, k))
		}
		i = j
	}
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
// delta goes both ways — the copying decoder and the in-place one forward from
// old to new without the copying one touching old, and the in-place one back
// from new to old.
func checkDelta(t *testing.T, old, new []byte) {
	t.Helper()
	d := AppendDelta(nil, old, new)
	if ref := refAppendDelta(nil, old, new); !bytes.Equal(d, ref) {
		t.Fatalf("AppendDelta differs from the reference encoder:\n got %x\nwant %x", d, ref)
	}
	if len(old) == len(new) {
		for _, at := range coverings(old, new, 1+len(new)%7) {
			checkPatchRegions(t, old, new, at, d)
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
	// In place, both ways, with and without room to grow.
	for _, way := range []struct {
		name     string
		patch    func(buf, delta []byte) ([]byte, error)
		from, to []byte
	}{{"PatchDelta", PatchDelta, old, new}, {"UndoDelta", UndoDelta, new, old}} {
		for _, spare := range []int{0, len(way.to)} {
			buf := append(make([]byte, 0, len(way.from)+spare), way.from...)
			got, err := way.patch(buf, d)
			if err != nil || !bytes.Equal(got, way.to) {
				t.Fatalf("%s (spare %d): err %v, %d bytes out, want %d", way.name, spare, err, len(got), len(way.to))
			}
			if len(way.to) > 0 && len(way.to) <= cap(buf) && &got[0] != &buf[:1][0] {
				t.Fatalf("%s (spare %d) reallocated a buffer the result fits in", way.name, spare)
			}
		}
	}
}

// checkPatchRegions: PatchRegions over the regions at, which cover every byte
// where old and new differ, appends exactly want and patches old to new.
func checkPatchRegions(t *testing.T, old, new []byte, at []Region, want []byte) {
	t.Helper()
	var data []byte
	for _, r := range at {
		data = append(data, new[r.Off:r.Off+r.Len]...)
	}
	enc := append([]byte(nil), old...)
	got, err := PatchRegions(nil, enc, at, data)
	if err != nil || !bytes.Equal(enc, new) {
		t.Fatalf("PatchRegions over %v: err %v, encoding patched to %x, want %x", at, err, enc, new)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("PatchRegions over %v differs from AppendDelta:\n got %x\nwant %x", at, got, want)
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

// TestPatchRegionsRandomCovers: over random edits of a structured encoding —
// zero runs, equal gaps of every length around minSkipRun, changes at the ends
// — and random covers of them, regions that open and close anywhere, abut,
// stand empty and reach over unchanged bytes, PatchRegions appends what
// AppendDelta appends and leaves the encoding patched to the new one.
func TestPatchRegionsRandomCovers(t *testing.T) {
	r := model.NewRand(17)
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(3*matchBlock)
		old := make([]byte, n)
		for i := range old {
			if r.Intn(3) == 0 {
				old[i] = byte(r.Uint64())
			}
		}
		new := append([]byte(nil), old...)
		for e := r.Intn(12); e > 0; e-- {
			at := r.Intn(n)
			for k := at; k < min(n, at+1+r.Intn(9)); k++ {
				new[k] ^= byte(1 + r.Intn(255))
			}
		}
		var at []Region
		open := -1
		for i := 0; i <= n; i++ {
			differs := i < n && old[i] != new[i]
			if open >= 0 && !differs && r.Intn(4) == 0 {
				at = append(at, Region{Off: open, Len: i - open})
				open = -1
			}
			if i == n {
				break
			}
			if open < 0 && r.Intn(20) == 0 {
				at = append(at, Region{Off: i}) // empty
			}
			if open < 0 && (differs || r.Intn(8) == 0) {
				open = i
			}
		}
		if open >= 0 {
			at = append(at, Region{Off: open, Len: n - open})
		}
		checkPatchRegions(t, old, new, at, AppendDelta(nil, old, new))
	}
}

// TestDeltaCorruptPaths drives one delta into each corruption check of the
// decoder, both ways. The base is 8 bytes: going forward the header reads
// (base, target), going back (target, base), and the runs are the same.
func TestDeltaCorruptPaths(t *testing.T) {
	base := []byte("ABCDEFGH")
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	const huge = 1<<64 - 1
	cases := []struct {
		name           string
		header         []byte // the whole delta when set
		length, target uint64
		runs           []byte
		want           string
	}{
		{name: "empty", header: []byte{}, want: "delta header"},
		{name: "overlong header", header: bytes.Repeat([]byte{0xff}, 11), want: "delta header"},
		{name: "missing target length", header: uv(8), want: "delta header"},
		{name: "base shorter than the header says", length: 9, target: 8, want: "delta base"},
		{name: "base longer than the header says", length: 7, target: 8, want: "delta base"},
		{name: "length beyond old plus stream", length: 8, target: 100, runs: uv(0), want: "delta length"},
		{name: "length near 2^64", length: 8, target: huge, want: "delta length"},
		{name: "missing skip", length: 8, target: 8, runs: []byte{0x80}, want: "delta skip"},
		{name: "missing changed", length: 8, target: 8, runs: uv(2), want: "delta run"},
		{name: "changed past the stream", length: 8, target: 8, runs: cat(uv(2), uv(5), []byte("xy")), want: "delta run"},
		{name: "changed near 2^64", length: 8, target: 8, runs: cat(uv(2), uv(huge)), want: "delta run"},
		{name: "skip past old", length: 8, target: 8, runs: cat(uv(9), uv(1), []byte("x")), want: "delta run range"},
		{name: "skip near 2^64", length: 8, target: 8, runs: cat(uv(1), uv(1), []byte("x"), uv(huge), uv(0)), want: "delta run range"},
		{name: "op starting past old", length: 8, target: 12, runs: cat(uv(8), uv(2), []byte("xy"), uv(3), uv(0)), want: "delta run range"},
		{name: "overshoot", length: 8, target: 8, runs: cat(uv(5), uv(4), []byte("wxyz")), want: "delta run range"},
		{name: "trailing bytes", length: 8, target: 8, runs: cat(uv(8), uv(0), []byte{0}), want: "delta run"},
		{name: "dropped tail not zero", length: 8, target: 4, want: "delta tail"},
		{name: "dropped tail half undone", length: 8, target: 4, runs: cat(uv(4), uv(2), []byte("EF")), want: "delta tail"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			forward, back := c.header, c.header
			if c.header == nil {
				forward = cat(uv(c.length), uv(c.target), c.runs)
				back = cat(uv(c.target), uv(c.length), c.runs)
			}
			_, errA := ApplyDelta(base, forward)
			_, errP := PatchDelta(append([]byte(nil), base...), forward)
			_, errU := UndoDelta(append([]byte(nil), base...), back)
			for _, err := range []error{errA, errP, errU} {
				if err == nil || !strings.HasSuffix(err.Error(), "corrupt "+c.want) {
					t.Fatalf("err = %v, want corrupt %s", err, c.want)
				}
			}
		})
	}
	// The last case less one byte of its run is a well-formed delta: the tail
	// it drops comes out 0, and going back brings it back.
	good := cat(uv(8), uv(4), uv(4), uv(4), []byte("EFGH"))
	got, err := ApplyDelta(base, good)
	if err != nil || string(got) != "ABCD" {
		t.Fatalf("dropping the tail: %q, %v", got, err)
	}
	if got, err = UndoDelta(got, good); err != nil || string(got) != "ABCDEFGH" {
		t.Fatalf("restoring the tail: %q, %v", got, err)
	}
}

// FuzzDelta: any (old, new) pair encodes exactly as the reference encoder
// does and decodes both ways; any junk offered as a delta is rejected or
// applied without a panic, identically by both forward decoders, and junk
// that applies forward undoes back to where it started.
func FuzzDelta(f *testing.F) {
	r := model.NewRand(5)
	big := randBytes(&r, 2*matchBlock+17)
	edit := append([]byte(nil), big...)
	edit[3]++
	edit[matchBlock-1]++
	edit[matchBlock+3]++
	f.Add([]byte(nil), []byte(nil), []byte(nil))
	f.Add(big, edit, AppendDelta(nil, big, edit))
	f.Add(big, big[:40], AppendDelta(nil, big, big[:40]))
	f.Add(big[:40], edit, []byte{40, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0, 0})
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
		if errA == nil {
			if back, err := UndoDelta(gotA, junk); err != nil || !bytes.Equal(back, old) {
				t.Fatalf("junk applied forward to %x and undid to (%x, %v)", old, back, err)
			}
		}
		UndoDelta(append([]byte(nil), new...), junk)
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
