package observe

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"gowarp/internal/stats"
	"gowarp/internal/telemetry"
	"gowarp/internal/vtime"
)

// Report is a fully derived run report: attributed rollbacks grouped into
// cascades, the roughness timeline, and (when available) the run record
// (stats.RunRecord, the -json-out artifact) for run-level and per-LP context. Build one with NewReport and
// render it with WriteText; cmd/twreport also renders it as an HTML page,
// which lives there, with whatever it links (TestKernelImportGraph).
type Report struct {
	Summary    *stats.RunRecord
	Rollbacks  []Rollback
	Cascades   []Cascade
	Samples    []RoughnessSample
	KindCounts map[string]int64
}

// NewReport derives a report from a merged trace and an optional summary.
func NewReport(evs []telemetry.Event, sum *stats.RunRecord) *Report {
	rbs := ExtractRollbacks(evs)
	Link(rbs)
	return &Report{
		Summary:   sum,
		Rollbacks: rbs,
		Cascades:  BuildCascades(rbs),
		Samples:   ExtractRoughness(evs),
	}
}

// vtStr renders a virtual time (telemetry carries them as raw int64s).
func vtStr(v int64) string { return vtime.Time(v).String() }

func ms(d time.Duration) string { return fmt.Sprintf("%.3fms", float64(d)/1e6) }

// ObjLabel names an object, with its hosting LP when the final partition
// is known.
func ObjLabel(obj int32, part []int) string {
	if obj >= 0 && int(obj) < len(part) {
		return fmt.Sprintf("obj %d (LP %d)", obj, part[obj])
	}
	return fmt.Sprintf("obj %d", obj)
}

// nodeLine renders one rollback episode for the cascade tree.
func nodeLine(r *Rollback, part []int) string {
	cause := "straggler"
	if r.Anti {
		cause = "anti-message"
	}
	return fmt.Sprintf("@%s LP%d obj %d <- %s from %s send_vt=%s recv_vt=%s: %d undone, %d coasted, %d antis",
		ms(r.Wall), r.LP, r.Object, cause, ObjLabel(r.Src, part),
		vtStr(r.SendVT), vtStr(r.RecvVT), r.Rolled, r.Coasted, r.Antis)
}

// maxTreeNodes caps the episodes printed per cascade tree; pathological
// storms are summarized rather than dumped.
const maxTreeNodes = 16

// WriteTree renders one cascade as an indented tree rooted at idx.
func WriteTree(w io.Writer, rbs []Rollback, idx int, part []int) {
	var printed int
	var rec func(i int, prefix string, last bool)
	rec = func(i int, prefix string, last bool) {
		if printed >= maxTreeNodes {
			return
		}
		printed++
		connector, childPrefix := "├─ ", prefix+"│  "
		if last {
			connector, childPrefix = "└─ ", prefix+"   "
		}
		if prefix == "" && last {
			connector, childPrefix = "", "   "
		}
		fmt.Fprintf(w, "  %s%s%s\n", prefix, connector, nodeLine(&rbs[i], part))
		kids := rbs[i].Children
		for k, ch := range kids {
			rec(ch, childPrefix, k == len(kids)-1)
		}
	}
	rec(idx, "", true)
	total := treeSize(rbs, idx)
	if total > printed {
		fmt.Fprintf(w, "     … %d more episodes in this cascade\n", total-printed)
	}
}

func treeSize(rbs []Rollback, idx int) int {
	seen := map[int]bool{}
	stack := []int{idx}
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[i] {
			continue
		}
		seen[i] = true
		stack = append(stack, rbs[i].Children...)
	}
	return len(seen)
}

// bar renders a crude horizontal bar of v scaled against max.
func bar(v, max int64, width int) string {
	if max <= 0 || v <= 0 {
		return ""
	}
	n := int(v * int64(width) / max)
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

// subsample picks at most n indices evenly across [0, total).
func subsample(total, n int) []int {
	if total <= n {
		out := make([]int, total)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = i * (total - 1) / (n - 1)
	}
	return out
}

// SecondaryCount returns how many rollbacks were linked to a parent.
func (r *Report) SecondaryCount() int {
	n := 0
	for i := range r.Rollbacks {
		if r.Rollbacks[i].Parent != -1 {
			n++
		}
	}
	return n
}

// depthHist returns the rollback-depth histogram: from the summary when
// present, else recomputed from the extracted rollbacks.
func (r *Report) depthHist() []int64 {
	if r.Summary != nil && len(r.Summary.RollbackDepthHist) > 0 {
		return r.Summary.RollbackDepthHist
	}
	if len(r.Rollbacks) == 0 {
		return nil
	}
	h := make([]int64, len(stats.DepthBounds)+1)
	for i := range r.Rollbacks {
		h[stats.DepthBucket(r.Rollbacks[i].Rolled)]++
	}
	return h
}

// maxRoughnessRows bounds the text roughness timeline; longer runs are
// subsampled evenly.
const maxRoughnessRows = 24

// WriteText renders the report as an aligned plain-text document, showing
// the topK most expensive cascade trees.
func (r *Report) WriteText(w io.Writer, topK int) error {
	var b strings.Builder
	var part []int

	b.WriteString("=== gowarp run report ===\n")
	if s := r.Summary; s != nil {
		part = s.FinalPartition
		fmt.Fprintf(&b, "model %s: %.3fs wall, %.0f events/s, efficiency %.3f, wasted-work ratio %.3f\n",
			s.Model, s.Elapsed.Seconds(), s.EventRate(), s.Stats.Efficiency(), s.Stats.WastedWorkRatio())
		fmt.Fprintf(&b, "events: %d committed, %d rolled back; %d rollbacks (mean length %.2f); final GVT %s\n",
			s.Stats.EventsCommitted, s.Stats.EventsRolledBack, s.Stats.Rollbacks,
			s.Stats.MeanRollbackLength(), s.GVT)
		if s.TraceDropped > 0 {
			fmt.Fprintf(&b, "note: %d trace events dropped to ring wraparound; attribution below is over the retained window\n", s.TraceDropped)
		}
	}

	b.WriteString("\n--- rollback cascades ---\n")
	if len(r.Rollbacks) == 0 {
		b.WriteString("no rollbacks in trace\n")
	} else {
		fmt.Fprintf(&b, "%d rollback episodes in %d cascades (%d secondary episodes attributed to a parent)\n",
			len(r.Rollbacks), len(r.Cascades), r.SecondaryCount())
		if topK <= 0 {
			topK = 5
		}
		for i, c := range r.Cascades {
			if i >= topK {
				fmt.Fprintf(&b, "… %d more cascades\n", len(r.Cascades)-topK)
				break
			}
			root := &r.Rollbacks[c.Root]
			fmt.Fprintf(&b, "#%d root: LP%d obj %d, cause %s — cost: %d events undone, %d restores, %d antis, %d coasted, depth %d\n",
				i+1, root.LP, root.Object, ObjLabel(root.Src, part),
				c.Rolled, c.Members, c.Antis, c.Coasted, c.Depth)
			WriteTree(&b, r.Rollbacks, c.Root, part)
		}
	}

	if h := r.depthHist(); h != nil {
		b.WriteString("\n--- rollback depth histogram (events undone per episode) ---\n")
		var maxC int64
		for _, c := range h {
			if c > maxC {
				maxC = c
			}
		}
		for i, c := range h {
			label := fmt.Sprintf(">%d", stats.DepthBounds[len(stats.DepthBounds)-1])
			if i < len(stats.DepthBounds) {
				label = fmt.Sprintf("<=%d", stats.DepthBounds[i])
			}
			if c == 0 {
				continue
			}
			fmt.Fprintf(&b, "%7s  %7d  %s\n", label, c, bar(c, maxC, 40))
		}
	}

	b.WriteString("\n--- virtual-time roughness timeline ---\n")
	if len(r.Samples) == 0 {
		b.WriteString("no roughness samples in trace (record one with -trace)\n")
	} else {
		var maxW int64
		for _, s := range r.Samples {
			if s.Width() > maxW {
				maxW = s.Width()
			}
		}
		fmt.Fprintf(&b, "%10s %12s %12s %12s %8s %8s %7s %4s\n",
			"wall", "gvt", "min_lvt", "max_lvt", "width", "stddev", "wasted", "lag")
		for _, i := range subsample(len(r.Samples), maxRoughnessRows) {
			s := r.Samples[i]
			fmt.Fprintf(&b, "%10s %12s %12s %12s %8d %8d %7.3f %4d  %s\n",
				ms(s.Wall), vtStr(s.GVT), vtStr(s.Min), vtStr(s.Max),
				s.Width(), s.Std, s.Wasted, s.Laggard, bar(s.Width(), maxW, 20))
		}
		if rs := r.RoughnessSummary(); rs != nil {
			fmt.Fprintf(&b, "%d samples: mean width %.1f, max width %d, mean stddev %.1f\n",
				rs.Samples, rs.MeanWidth, rs.MaxWidth, rs.MeanStdDev)
		}
	}

	if s := r.Summary; s != nil && len(s.PerLP) > 0 {
		b.WriteString("\n--- per-LP efficiency ---\n")
		hasWorkers := len(s.FinalWorkerAssignment) == len(s.PerLP)
		fmt.Fprintf(&b, "%4s %12s %12s %12s %6s %7s %10s %8s",
			"lp", "processed", "committed", "rolledback", "eff", "wasted", "rollbacks", "antis")
		if hasWorkers {
			fmt.Fprintf(&b, " %6s", "worker")
		}
		b.WriteString("\n")
		for i := range s.PerLP {
			c := &s.PerLP[i]
			fmt.Fprintf(&b, "%4d %12d %12d %12d %6.3f %7.3f %10d %8d",
				i, c.EventsProcessed, c.EventsCommitted, c.EventsRolledBack,
				c.Efficiency(), c.WastedWorkRatio(), c.Rollbacks, c.AntiMsgsSent)
			if hasWorkers {
				fmt.Fprintf(&b, " %6d", s.FinalWorkerAssignment[i])
			}
			b.WriteString("\n")
		}
	}

	if s := r.Summary; s != nil && len(s.PerWorker) > 0 {
		b.WriteString("\n--- worker pool ---\n")
		fmt.Fprintf(&b, "%6s %12s %10s %6s %10s %11s %11s\n",
			"worker", "events", "busy", "lps", "adoptions", "pool_allocs", "pool_reuses")
		for i := range s.PerWorker {
			w := &s.PerWorker[i]
			fmt.Fprintf(&b, "%6d %12d %9.3fs %6d %10d %11d %11d\n",
				w.Worker, w.Events, w.BusySeconds, w.OwnedLPs,
				w.Adoptions, w.EventPoolAllocs, w.EventPoolReuses)
		}
	}

	if len(r.KindCounts) > 0 {
		b.WriteString("\n--- trace contents ---\n")
		kinds := make([]string, 0, len(r.KindCounts))
		for k := range r.KindCounts {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fmt.Fprintf(&b, "%-20s %d\n", k, r.KindCounts[k])
		}
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// RoughnessSummary aggregates the extracted samples through the fold the
// kernel uses (preferring the run artifact's own summary when present).
func (r *Report) RoughnessSummary() *stats.RoughnessSummary {
	if r.Summary != nil && r.Summary.Roughness != nil {
		return r.Summary.Roughness
	}
	var f stats.RoughnessFold
	for _, s := range r.Samples {
		f.Add(s.Width(), float64(s.Std))
	}
	return f.Summary()
}
