package main

import (
	"fmt"
	"html/template"
	"io"
	"strings"

	"gowarp/internal/observe"
)

// htmlPage renders the text report's content as a single self-contained page:
// the cascade trees as preformatted text, the roughness timeline as an
// inline SVG polyline, and the per-LP table.
const htmlPage = `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>gowarp run report</title>
<style>
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; }
th, td { border: 1px solid #bbb; padding: 3px 8px; text-align: right; font-variant-numeric: tabular-nums; }
th { background: #eee; }
pre { background: #f6f6f6; padding: 8px; overflow-x: auto; }
svg { border: 1px solid #ccc; background: #fff; }
</style></head><body>
<h1>gowarp run report</h1>
{{if .Header}}<p>{{.Header}}</p>{{end}}
<h2>Rollback cascades</h2>
<p>{{.CascadeSummary}}</p>
{{range .Trees}}<h3>{{.Title}}</h3><pre>{{.Body}}</pre>{{end}}
<h2>Virtual-time roughness</h2>
{{if .Polyline}}
<p>LVT width over wall time (max {{.MaxWidth}}):</p>
<svg width="640" height="160" viewBox="0 0 640 160" preserveAspectRatio="none">
<polyline fill="none" stroke="#c33" stroke-width="1.5" points="{{.Polyline}}"/>
</svg>
{{else}}<p>No roughness samples in trace.</p>{{end}}
{{if .Roughness}}<p>{{.Roughness}}</p>{{end}}
{{if .PerLP}}
<h2>Per-LP efficiency</h2>
<table><tr><th>LP</th><th>processed</th><th>committed</th><th>rolled back</th><th>efficiency</th><th>wasted</th><th>rollbacks</th><th>antis</th>{{if .HasWorkers}}<th>worker</th>{{end}}</tr>
{{range .PerLP}}<tr><td>{{.LP}}</td><td>{{.Processed}}</td><td>{{.Committed}}</td><td>{{.RolledBack}}</td><td>{{.Eff}}</td><td>{{.Wasted}}</td><td>{{.Rollbacks}}</td><td>{{.Antis}}</td>{{if $.HasWorkers}}<td>{{.Worker}}</td>{{end}}</tr>
{{end}}</table>
{{end}}
{{if .PerWorker}}
<h2>Worker pool</h2>
<table><tr><th>worker</th><th>events</th><th>busy</th><th>owned LPs</th><th>adoptions</th><th>pool allocs</th><th>pool reuses</th></tr>
{{range .PerWorker}}<tr><td>{{.Worker}}</td><td>{{.Events}}</td><td>{{.Busy}}</td><td>{{.OwnedLPs}}</td><td>{{.Adoptions}}</td><td>{{.PoolAllocs}}</td><td>{{.PoolReuses}}</td></tr>
{{end}}</table>
{{end}}
</body></html>
`

// writeHTML renders the report as a single self-contained HTML page. The
// template is parsed here, when a page is asked for.
func writeHTML(w io.Writer, r *observe.Report, topK int) error {
	page, err := template.New("report").Parse(htmlPage)
	if err != nil {
		return err
	}
	if topK <= 0 {
		topK = 5
	}
	type tree struct{ Title, Body string }
	type lpRow struct {
		LP, Processed, Committed, RolledBack, Rollbacks, Antis, Worker int64
		Eff, Wasted                                                    string
	}
	type workerRow struct {
		Worker                                              int
		Events, OwnedLPs, Adoptions, PoolAllocs, PoolReuses int64
		Busy                                                string
	}
	data := struct {
		Header, CascadeSummary, Roughness, Polyline string
		MaxWidth                                    int64
		HasWorkers                                  bool
		Trees                                       []tree
		PerLP                                       []lpRow
		PerWorker                                   []workerRow
	}{}

	var part []int
	if s := r.Summary; s != nil {
		part = s.FinalPartition
		data.Header = fmt.Sprintf("model %s: %.3fs wall, %.0f events/s, efficiency %.3f, wasted-work ratio %.3f",
			s.Model, s.Elapsed.Seconds(), s.EventRate(), s.Stats.Efficiency(), s.Stats.WastedWorkRatio())
		data.HasWorkers = len(s.FinalWorkerAssignment) == len(s.PerLP)
		for i := range s.PerLP {
			c := &s.PerLP[i]
			row := lpRow{
				LP: int64(i), Processed: c.EventsProcessed, Committed: c.EventsCommitted,
				RolledBack: c.EventsRolledBack, Rollbacks: c.Rollbacks, Antis: c.AntiMsgsSent,
				Eff: fmt.Sprintf("%.3f", c.Efficiency()), Wasted: fmt.Sprintf("%.3f", c.WastedWorkRatio()),
			}
			if data.HasWorkers {
				row.Worker = int64(s.FinalWorkerAssignment[i])
			}
			data.PerLP = append(data.PerLP, row)
		}
		for i := range s.PerWorker {
			ws := &s.PerWorker[i]
			data.PerWorker = append(data.PerWorker, workerRow{
				Worker: ws.Worker, Events: ws.Events, OwnedLPs: int64(ws.OwnedLPs),
				Adoptions: ws.Adoptions, PoolAllocs: ws.EventPoolAllocs, PoolReuses: ws.EventPoolReuses,
				Busy: fmt.Sprintf("%.3fs", ws.BusySeconds),
			})
		}
	}
	data.CascadeSummary = fmt.Sprintf("%d rollback episodes in %d cascades (%d secondary episodes attributed to a parent)",
		len(r.Rollbacks), len(r.Cascades), r.SecondaryCount())
	for i, c := range r.Cascades {
		if i >= topK {
			break
		}
		root := &r.Rollbacks[c.Root]
		var b strings.Builder
		observe.WriteTree(&b, r.Rollbacks, c.Root, part)
		data.Trees = append(data.Trees, tree{
			Title: fmt.Sprintf("#%d root LP%d obj %d, cause %s — %d events undone, %d restores, %d antis, depth %d",
				i+1, root.LP, root.Object, observe.ObjLabel(root.Src, part), c.Rolled, c.Members, c.Antis, c.Depth),
			Body: b.String(),
		})
	}
	if len(r.Samples) > 0 {
		var maxW int64 = 1
		for _, s := range r.Samples {
			if s.Width() > maxW {
				maxW = s.Width()
			}
		}
		data.MaxWidth = maxW
		t0 := r.Samples[0].Wall
		span := r.Samples[len(r.Samples)-1].Wall - t0
		if span <= 0 {
			span = 1
		}
		var pts []string
		for _, s := range r.Samples {
			x := float64(s.Wall-t0) / float64(span) * 640
			y := 155 - float64(s.Width())/float64(maxW)*150
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", x, y))
		}
		data.Polyline = strings.Join(pts, " ")
		if rs := r.RoughnessSummary(); rs != nil {
			data.Roughness = fmt.Sprintf("%d samples: mean width %.1f, max width %d, mean stddev %.1f",
				rs.Samples, rs.MeanWidth, rs.MaxWidth, rs.MeanStdDev)
		}
	}
	return page.Execute(w, data)
}
