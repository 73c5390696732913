package core

import (
	"testing"

	"gowarp/internal/vtime"
)

// TestProgressWindow drives one controller's window over three LPs whose
// progress records are written at different GVTs, as workers that run their
// LPs at different times write them. The window refuses to be read while an
// LP has no record at the cut, gives per-LP deltas equal to the difference of
// the records at the two cuts, and, left undecided, extends: the next
// decision covers both spans.
func TestProgressWindow(t *testing.T) {
	// at is LP i's record as of GVT g; NegInf is the run's start.
	at := func(i int, g vtime.Time) progress {
		if g == vtime.NegInf {
			return progress{}
		}
		n := int64(g) * int64(i+1)
		return progress{processed: 3 * n, committed: 2 * n, rolledBack: n / 5}
	}
	lps := make([]*lpRun, 3)
	for i := range lps {
		lps[i] = &lpRun{loads: [2]loadSample{{at: vtime.NegInf}, {at: vtime.NegInf}}}
	}
	record := func(i int, g vtime.Time) {
		p := at(i, g)
		lps[i].st.EventsProcessed, lps[i].st.EventsCommitted, lps[i].st.EventsRolledBack = p.processed, p.committed, p.rolledBack
		lps[i].recordProgress(g)
	}
	w := newProgressWindow(lps)

	type rec struct {
		lp int
		g  vtime.Time
	}
	for _, st := range []struct {
		name    string
		records []rec
		cut     vtime.Time
		ok      bool
		from    vtime.Time // the cut the deltas are measured from
		decide  bool
	}{
		{"at the start every LP reads zero", nil, vtime.NegInf, true, vtime.NegInf, false},
		{"an LP without a record at the cut refuses", []rec{{0, 10}, {1, 10}}, 10, false, 0, false},
		{"every LP at the cut reads, too thin to decide", []rec{{2, 10}}, 10, true, vtime.NegInf, false},
		{"one LP ahead still has the cut; the undecided span is covered",
			[]rec{{0, 20}, {1, 20}, {2, 20}, {0, 30}}, 20, true, vtime.NegInf, true},
		{"the next window starts at the decided cut", []rec{{1, 30}, {2, 30}, {0, 40}}, 30, true, 20, true},
		{"a record three applications old is gone", nil, 20, false, 0, false},
	} {
		for _, r := range st.records {
			record(r.lp, r.g)
		}
		delta, total, ok := w.observe(st.cut)
		if ok != st.ok {
			t.Fatalf("%s: readable %v, want %v", st.name, ok, st.ok)
		}
		if !ok {
			continue
		}
		var want progress
		for i, d := range delta {
			if wd := at(i, st.cut).minus(at(i, st.from)); d != wd {
				t.Errorf("%s: LP %d's delta %+v, want %+v", st.name, i, d, wd)
			}
			want = want.plus(d)
		}
		if total != want {
			t.Errorf("%s: total %+v, want the deltas' sum %+v", st.name, total, want)
		}
		if st.decide {
			w.decide()
		}
	}
}
