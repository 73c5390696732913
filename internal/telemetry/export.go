package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"time"
)

// This file owns the trace's interchange formats:
//
//   - JSONL: one self-describing JSON object per line, for ad-hoc analysis
//     with jq / pandas / DuckDB — written by WriteJSONL, read by ReadJSONL.
//   - Chrome trace_event JSON, loadable by chrome://tracing and Perfetto:
//     each LP appears as a thread, rollbacks as duration slices, GVT as a
//     counter track, everything else as instant events.
//
// What a kind's record holds — its keys, the Event slot behind each and how
// the slot's integer is rendered — is said once, in the tables below; the two
// writers and the reader walk them. Records are built byte by byte (no
// encoding/json) so output is deterministic given the same events, which the
// golden tests rely on.

// slot names an Event field: its index in the array slots returns.
type slot uint8

const (
	slotWall slot = iota
	slotKind
	slotLP
	slotObject
	slotVT
	slotA
	slotB
	slotC
	slotD
	slotE
	slotF
	slotDur
	numSlots
)

// slots lays the event out by slot; eventOf is its inverse.
func (ev *Event) slots() [numSlots]int64 {
	return [numSlots]int64{
		slotWall: int64(ev.Wall), slotKind: int64(ev.Kind), slotLP: int64(ev.LP),
		slotObject: int64(ev.Object), slotVT: ev.VT, slotDur: int64(ev.Dur),
		slotA: ev.A, slotB: ev.B, slotC: ev.C, slotD: ev.D, slotE: ev.E, slotF: ev.F,
	}
}

func eventOf(v *[numSlots]int64) Event {
	return Event{
		Wall: time.Duration(v[slotWall]), Kind: Kind(v[slotKind]), LP: int32(v[slotLP]),
		Object: int32(v[slotObject]), VT: v[slotVT], Dur: time.Duration(v[slotDur]),
		A: v[slotA], B: v[slotB], C: v[slotC], D: v[slotD], E: v[slotE], F: v[slotF],
	}
}

// form is how a slot's integer appears in a record.
type form uint8

const (
	formInt   form = iota // decimal
	formMilli             // thousandths to three places: nanoseconds as µs, permille as a fraction
	formBool              // 1 as true, anything else as false
	formEnum              // words[v], quoted; out of range as the last word
)

// field is one key of a record.
type field struct {
	key   string
	slot  slot
	form  form
	words []string // formEnum only
}

// kindFormat is one kind's name in exported traces and the fields that follow
// the head in its records (a Chrome event's args).
type kindFormat struct {
	name   string
	fields []field
}

// formats is indexed by Kind; its last entry serves every kind beyond it.
var formats = [...]kindFormat{
	KindRollback: {"rollback", []field{
		{"object", slotObject, formInt, nil},
		{"vt", slotVT, formInt, nil},
		{"cause", slotA, formEnum, []string{CauseStraggler: "straggler", CauseAnti: "anti"}},
		{"src", slotD, formInt, nil},
		{"send_vt", slotE, formInt, nil},
		{"rolled", slotB, formInt, nil},
		{"coasted", slotC, formInt, nil},
		{"antis", slotF, formInt, nil},
		{"coast_us", slotDur, formMilli, nil},
	}},
	KindCheckpointAdjust: {"checkpoint_adjust", []field{
		{"object", slotObject, formInt, nil},
		{"old_chi", slotA, formInt, nil},
		{"new_chi", slotB, formInt, nil},
		{"ec_us", slotDur, formMilli, nil},
	}},
	KindStrategySwitch: {"strategy_switch", []field{
		{"object", slotObject, formInt, nil},
		{"to", slotA, formEnum, []string{"aggressive", "lazy"}},
		{"hit_ratio", slotB, formMilli, nil},
	}},
	KindGVT: {"gvt", []field{
		{"vt", slotVT, formInt, nil},
		{"rounds", slotA, formInt, nil},
		{"cycle_us", slotDur, formMilli, nil},
	}},
	// The words mirror comm.FlushCause without importing it (telemetry sits
	// below the communication layer in the dependency order).
	KindFlush: {"flush", []field{
		{"dst", slotObject, formInt, nil},
		{"cause", slotA, formEnum, []string{"window", "capacity", "urgent", "idle"}},
		{"events", slotB, formInt, nil},
		{"bytes", slotC, formInt, nil},
	}},
	KindWindowAdjust: {"window_adjust", []field{
		{"dst", slotObject, formInt, nil},
		{"old_us", slotA, formMilli, nil},
		{"new_us", slotB, formMilli, nil},
	}},
	KindMigration: {"migration", []field{
		{"object", slotObject, formInt, nil},
		{"from", slotA, formInt, nil},
		{"pending", slotB, formInt, nil},
		{"epoch", slotC, formInt, nil},
	}},
	KindBalance: {"balance", []field{
		{"imbalance", slotA, formMilli, nil},
		{"active", slotB, formBool, nil},
		{"moves", slotC, formInt, nil},
	}},
	KindCodecSwitch: {"codec_switch", []field{
		{"object", slotObject, formInt, nil},
		{"to", slotA, formEnum, []string{"full", "delta"}},
		{"ratio", slotB, formMilli, nil},
	}},
	KindRoughness: {"roughness", []field{
		{"gvt", slotVT, formInt, nil},
		{"min_lvt", slotA, formInt, nil},
		{"max_lvt", slotB, formInt, nil},
		{"mean_lvt", slotC, formInt, nil},
		{"stddev_lvt", slotD, formInt, nil},
		{"lag_lp", slotObject, formInt, nil},
		{"wasted", slotE, formMilli, nil},
	}},
	KindOptSwitch: {"opt_switch", []field{
		{"old_window", slotA, formInt, nil},
		{"new_window", slotB, formInt, nil},
		{"wasted", slotC, formMilli, nil},
		{"lvt_width", slotD, formInt, nil},
	}},
	numKinds: {"unknown", []field{
		{"a", slotA, formInt, nil},
		{"b", slotB, formInt, nil},
		{"c", slotC, formInt, nil},
	}},
}

// kindNames is formats' names, indexed by Kind.
var kindNames = func() (names []string) {
	for i := range formats {
		names = append(names, formats[i].name)
	}
	return names
}()

// head is what every JSONL record starts with, whatever its kind. A field
// every record should carry — the recording rank of a fleet's merged trace,
// say — is a row here.
var head = []field{
	{"wall_us", slotWall, formMilli, nil},
	{"kind", slotKind, formEnum, kindNames},
	{"lp", slotLP, formInt, nil},
}

// format returns k's table.
func (k Kind) format() *kindFormat { return &formats[min(k, numKinds)] }

// appendMilli renders thousandths to three places.
func appendMilli(b []byte, v int64) []byte {
	return strconv.AppendFloat(b, float64(v)/1e3, 'f', 3, 64)
}

// appendFields renders fields of v as `"key":value` pairs, comma-separated.
func appendFields(b []byte, fields []field, v *[numSlots]int64) []byte {
	for i := range fields {
		f, x := &fields[i], v[fields[i].slot]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(append(b, '"'), f.key...), '"', ':')
		switch f.form {
		case formInt:
			b = strconv.AppendInt(b, x, 10)
		case formMilli:
			b = appendMilli(b, x)
		case formBool:
			b = strconv.AppendBool(b, x == 1)
		case formEnum:
			if x < 0 || x >= int64(len(f.words)) {
				x = int64(len(f.words)) - 1
			}
			b = strconv.AppendQuote(b, f.words[x])
		}
	}
	return b
}

// parseFields sets fields' slots of v from rec; a key rec lacks leaves zero.
func parseFields(fields []field, rec map[string]json.RawMessage, v *[numSlots]int64) error {
	for i := range fields {
		f := &fields[i]
		v[f.slot] = 0
		raw, ok := rec[f.key]
		if !ok {
			continue
		}
		var (
			x    float64
			word string
			err  error
		)
		switch f.form {
		case formInt:
			v[f.slot], err = strconv.ParseInt(string(raw), 10, 64)
		case formMilli:
			// The writer kept three places of a value a thousand times finer:
			// rounding, not truncating, is what gives the integer back.
			x, err = strconv.ParseFloat(string(raw), 64)
			v[f.slot] = int64(math.Round(x * 1e3))
		case formBool:
			if string(raw) == "true" {
				v[f.slot] = 1
			} else if string(raw) != "false" {
				err = fmt.Errorf("not true or false")
			}
		case formEnum:
			if word, err = strconv.Unquote(string(raw)); err == nil {
				if v[f.slot] = int64(slices.Index(f.words, word)); v[f.slot] < 0 {
					err = fmt.Errorf("not one of %q", f.words)
				}
			}
		}
		if err != nil {
			return fmt.Errorf("%q: %s: %w", f.key, raw, err)
		}
	}
	return nil
}

// WriteJSONL writes events one JSON object per line.
func WriteJSONL(w io.Writer, evs []Event) error {
	bw := bufio.NewWriter(w)
	var line []byte
	for i := range evs {
		v := evs[i].slots()
		line = appendFields(append(line[:0], '{'), head, &v)
		line = appendFields(append(line, ','), evs[i].Kind.format().fields, &v)
		if _, err := bw.Write(append(line, '}', '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteJSONL writes the tracer's merged events one JSON object per line.
func (t *Tracer) WriteJSONL(w io.Writer) error { return WriteJSONL(w, t.Events()) }

// ReadJSONL decodes a trace WriteJSONL wrote back into events, every kind, and
// tallies the lines of each kind name. A line of a kind this build does not
// know is tallied and skipped. Blank lines are skipped; a malformed line is
// an error naming its line number.
func ReadJSONL(r io.Reader) ([]Event, map[string]int64, error) {
	var evs []Event
	counts := map[string]int64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for lineNo := 1; sc.Scan(); lineNo++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		name, ev, known, err := parseRecord(sc.Bytes())
		if err != nil {
			return nil, nil, fmt.Errorf("telemetry: trace line %d: %w", lineNo, err)
		}
		counts[name]++
		if known {
			evs = append(evs, ev)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("telemetry: reading trace: %w", err)
	}
	return evs, counts, nil
}

// parseRecord decodes one line: its kind name and, when this build records
// the kind (known), its event.
func parseRecord(line []byte) (name string, ev Event, known bool, err error) {
	var rec map[string]json.RawMessage
	if err = json.Unmarshal(line, &rec); err == nil {
		err = json.Unmarshal(rec["kind"], &name)
	}
	k := slices.Index(kindNames[:numKinds], name)
	if err != nil || k < 0 {
		return name, ev, false, err
	}
	// Object is -1 where a kind has no use for it, as the recorders leave it;
	// a kind that has a key for it overwrites this.
	v := [numSlots]int64{slotObject: -1}
	if err = parseFields(head, rec, &v); err == nil {
		err = parseFields(formats[k].fields, rec, &v)
	}
	return name, eventOf(&v), true, err
}

// WriteChrome writes events in Chrome trace_event JSON format: an object
// with a traceEvents array, loadable by chrome://tracing and Perfetto.
// Timestamps are microseconds since the run started; each LP is rendered as
// a thread of process 0, rollbacks as "X" duration slices covering their
// coast-forward cost, GVT as a "C" counter track, and the remaining kinds
// as "i" instant events.
func WriteChrome(w io.Writer, evs []Event) error {
	bw := bufio.NewWriter(w) // a failed write sticks, and Flush reports it
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n" +
		`{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"gowarp"}}`)
	emit := func(format string, args ...any) { fmt.Fprintf(bw, ",\n"+format, args...) }
	seen := map[int32]bool{}
	for i := range evs {
		ev, v := &evs[i], evs[i].slots()
		if !seen[ev.LP] {
			seen[ev.LP] = true
			emit(`{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":"LP %d"}}`, ev.LP, ev.LP)
		}
		ts := appendMilli(nil, int64(ev.Wall))
		args := appendFields(nil, ev.Kind.format().fields, &v)
		switch ev.Kind {
		case KindRollback:
			emit(`{"name":"rollback","cat":"rollback","ph":"X","ts":%s,"dur":%s,"pid":0,"tid":%d,"args":{%s}}`,
				ts, appendMilli(nil, int64(ev.Dur)), ev.LP, args)
		case KindGVT:
			emit(`{"name":"gvt cycle","cat":"gvt","ph":"i","s":"g","ts":%s,"pid":0,"tid":%d,"args":{%s}}`,
				ts, ev.LP, args)
			// A counter track plots GVT progress; skip the infinite
			// sentinels (initial -inf, drained +inf) that would destroy
			// the scale.
			if ev.VT != math.MaxInt64 && ev.VT != math.MinInt64 {
				emit(`{"name":"GVT","ph":"C","ts":%s,"pid":0,"args":{"gvt":%d}}`, ts, ev.VT)
			}
		case KindRoughness:
			emit(`{"name":"roughness","cat":"roughness","ph":"i","s":"g","ts":%s,"pid":0,"tid":%d,"args":{%s}}`,
				ts, ev.LP, args)
			// A counter track plots the LVT spread; min/max are finite
			// whenever the kernel takes a sample: it skips cuts with no finite LVT.
			if ev.A != math.MaxInt64 && ev.A != math.MinInt64 && ev.B != math.MaxInt64 && ev.B != math.MinInt64 {
				emit(`{"name":"LVT width","ph":"C","ts":%s,"pid":0,"args":{"width":%d}}`, ts, ev.B-ev.A)
			}
		default:
			emit(`{"name":%q,"cat":%q,"ph":"i","s":"t","ts":%s,"pid":0,"tid":%d,"args":{%s}}`,
				ev.Kind.String(), ev.Kind.String(), ts, ev.LP, args)
		}
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// WriteChrome writes the tracer's merged events in Chrome trace_event format.
func (t *Tracer) WriteChrome(w io.Writer) error { return WriteChrome(w, t.Events()) }
