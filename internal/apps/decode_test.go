package apps_test

import (
	"bytes"
	"reflect"
	"testing"

	"gowarp/internal/apps/phold"
	"gowarp/internal/apps/qnet"
	"gowarp/internal/apps/raid"
	"gowarp/internal/apps/smmp"
	"gowarp/internal/audit"
	"gowarp/internal/codec"
	"gowarp/internal/core"
	"gowarp/internal/model"
	"gowarp/internal/vtime"
)

// bundledModels builds one small model per bundled application; between them
// their objects hold all nine bundled codec.DeltaState types. end cuts the run
// short of completion, so RAID's sources still have requests outstanding.
var bundledModels = []struct {
	name  string
	end   vtime.Time
	build func(seed uint64, pad int) *model.Model
}{
	{"phold", 400, func(seed uint64, pad int) *model.Model {
		return phold.New(phold.Config{Objects: 4, LPs: 1, Seed: seed, StatePadding: pad})
	}},
	{"smmp", 2_000, func(seed uint64, pad int) *model.Model {
		return smmp.New(smmp.Config{Processors: 2, LPs: 2, Seed: seed, StatePadding: pad})
	}},
	{"raid", 60_000, func(seed uint64, pad int) *model.Model {
		return raid.New(raid.Config{Sources: 2, Forks: 1, Disks: 2, LPs: 1, Seed: seed, StatePadding: pad})
	}},
	{"qnet", 400, func(seed uint64, pad int) *model.Model {
		return qnet.New(qnet.Config{Stations: 4, LPs: 1, Seed: seed, StatePadding: pad})
	}},
}

// statesByType runs m sequentially to end and returns the first state of
// every concrete type among the final states, by type name.
func statesByType(t *testing.T, m *model.Model, end vtime.Time) map[string]codec.DeltaState {
	t.Helper()
	res, err := core.RunSequential(m, end, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]codec.DeltaState{}
	for _, st := range res.FinalStates {
		name := reflect.TypeOf(st).String()
		if _, seen := out[name]; !seen {
			out[name] = st.(codec.DeltaState)
		}
	}
	return out
}

// scribble overwrites everything reflection can reach in a state with values
// no decode may let through: every scalar changed, every slice grown by grow
// elements and filled, three keys no model uses added to every map. A kind it
// does not know fails the test, so a new state field has to be taught here.
func scribble(t *testing.T, v reflect.Value, grow int) {
	t.Helper()
	switch v.Kind() {
	case reflect.Pointer:
		scribble(t, v.Elem(), grow)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			scribble(t, v.Field(i), grow)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			scribble(t, v.Index(i), grow)
		}
	case reflect.Slice:
		v.Set(reflect.AppendSlice(v, reflect.MakeSlice(v.Type(), grow, grow)))
		for i := 0; i < v.Len(); i++ {
			scribble(t, v.Index(i), grow)
		}
	case reflect.Map:
		if v.IsNil() {
			v.Set(reflect.MakeMap(v.Type()))
		}
		for i := uint64(0); i < 3; i++ {
			k := reflect.New(v.Type().Key()).Elem()
			k.SetUint(0xFFFF0000 + i)
			e := reflect.New(v.Type().Elem()).Elem()
			scribble(t, e, grow)
			v.SetMapIndex(k, e)
		}
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() ^ 0x5A5A5A5A)
	case reflect.Uint8, reflect.Uint32, reflect.Uint64:
		if v.CanSet() { // model.Rand keeps its word private; the seeds differ
			v.SetUint(v.Uint() ^ 0xA5)
		}
	default:
		t.Fatalf("scribble: no rule for a %v field", v.Kind())
	}
}

// TestDecodeIntoStaleStorage is the codec.DeltaState decode contract where
// decoding in place can go wrong: UnmarshalState on a receiver that already
// holds another state — longer and shorter slices, extra map keys, non-zero
// scalars — must return exactly what it returns on a fresh one, for every
// bundled state type, image after image into the same receiver; it must not
// alias the image; and a truncated image is an error, never a panic.
func TestDecodeIntoStaleStorage(t *testing.T) {
	want := []string{
		"*phold.state",
		"*smmp.cpuState", "*smmp.cacheState", "*smmp.portState", "*smmp.bankState",
		"*raid.sourceState", "*raid.forkState", "*raid.diskState",
		"*qnet.stationState",
	}
	seen := map[string]bool{}
	for _, app := range bundledModels {
		// Two states to decode, from different runs, the second with the
		// shorter padding; two receivers from yet other runs, one with longer
		// slices than either image and one with shorter.
		a := statesByType(t, app.build(1, 48), app.end)
		b := statesByType(t, app.build(2, 24), 2*app.end)
		long := statesByType(t, app.build(3, 96), app.end/2)
		short := statesByType(t, app.build(4, 8), 3*app.end)
		fresh := map[string]codec.DeltaState{}
		for _, o := range app.build(5, 48).Objects {
			st := o.InitialState()
			fresh[reflect.TypeOf(st).String()] = st.(codec.DeltaState)
		}
		for name, stA := range a {
			seen[name] = true
			t.Run(name, func(t *testing.T) {
				imgs := [][]byte{stA.MarshalState(nil), b[name].MarshalState(nil)}
				states := []codec.DeltaState{stA, b[name]}
				if bytes.Equal(imgs[0], imgs[1]) {
					t.Fatal("the two runs ended in the same state; the test needs two different images")
				}
				scribble(t, reflect.ValueOf(long[name]), 16)
				scribble(t, reflect.ValueOf(short[name]), 0)
				recvs := map[string]codec.DeltaState{"fresh": fresh[name], "long": long[name], "short": short[name]}
				for kind, recv := range recvs {
					for round, i := range []int{0, 1, 0} {
						data := append([]byte(nil), imgs[i]...)
						st, err := recv.UnmarshalState(data)
						if err != nil {
							t.Fatalf("%s receiver, decode %d: %v", kind, round, err)
						}
						for k := range data {
							data[k] ^= 0xFF // the result must not alias the image
						}
						got := st.(codec.DeltaState)
						if h, w := audit.HashState(got), audit.HashState(states[i]); h != w {
							t.Errorf("%s receiver, decode %d: state hash %x, want %x\ngot  %+v\nwant %+v",
								kind, round, h, w, got, states[i])
						}
						if !bytes.Equal(got.MarshalState(nil), imgs[i]) {
							t.Errorf("%s receiver, decode %d: re-encoding differs from the image decoded", kind, round)
						}
						if !reflect.DeepEqual(st, model.State(states[i])) {
							t.Errorf("%s receiver, decode %d: decoded state differs from the one encoded (a stale map key or slice tail?)\ngot  %+v\nwant %+v",
								kind, round, st, states[i])
						}
						recv = got // the next image goes into what this decode returned
					}
				}
				// Every strict prefix of an image is corrupt. What the receiver
				// holds afterwards is unspecified, and the full image decoded
				// over that must still come out right.
				recv := recvs["long"]
				for n := range imgs[0] {
					if _, err := recv.UnmarshalState(imgs[0][:n]); err == nil {
						t.Fatalf("the first %d of %d bytes decoded without error", n, len(imgs[0]))
					}
				}
				st, err := recv.UnmarshalState(imgs[0])
				if err != nil || audit.HashState(st) != audit.HashState(stA) {
					t.Errorf("decode after failed decodes: err %v, state %+v, want %+v", err, st, stA)
				}
			})
		}
	}
	for _, name := range want {
		if !seen[name] {
			t.Errorf("no bundled model produced a %s", name)
		}
	}
	if len(seen) != len(want) {
		t.Errorf("the bundled models hold %d state types, the test names %d: %v", len(seen), len(want), seen)
	}
}

// reporting are the bundled states that are codec.DirtyState too: the padded
// ones whose encoding is a few fixed-width fields and then Pad. The other three
// have encodings that change length (raid's sources hold maps, a qnet station a
// queue) or no padding worth skipping (phold's is its
// workload knob and its head is most of a small state).
var reporting = map[string]bool{
	"*smmp.cpuState": true, "*smmp.cacheState": true, "*smmp.portState": true, "*smmp.bankState": true,
	"*raid.forkState": true, "*raid.diskState": true,
}

// mutate gives every field of the state st points to, Pad excepted, a new
// random value with probability one half: what an Execute may do to it and
// more. A model.Rand keeps its word private and is stepped instead.
func mutate(t *testing.T, st any, r *model.Rand) {
	t.Helper()
	v := reflect.ValueOf(st).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if v.Type().Field(i).Name == "Pad" || r.Intn(2) == 0 {
			continue
		}
		switch {
		case f.Type() == reflect.TypeOf(model.Rand{}):
			f.Addr().Interface().(*model.Rand).Uint64()
		case f.CanInt():
			f.SetInt(int64(r.Uint64() >> uint(r.Intn(64))))
		case f.CanUint():
			f.SetUint(r.Uint64() >> uint(32+r.Intn(32)))
		default:
			t.Fatalf("mutate: no rule for field %s, a %v", v.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestDirtyStatesPatchInPlace is the codec.DirtyState contract for the six
// bundled states that report what they dirtied: over a thousand steps that
// write any of their fields at random, the encoding the kernel holds, patched in
// place from each report, equals a fresh MarshalState after every step, and the
// delta built from the report is the one the two whole encodings give —
// including across an UnmarshalState of an older encoding, the rollback, after
// which reports are measured from what was decoded. That the padding is left
// out is sound because no Execute writes it, which the sequential runs show.
func TestDirtyStatesPatchInPlace(t *testing.T) {
	seen := 0
	for _, app := range bundledModels {
		for name, st := range statesByType(t, app.build(1, 48), app.end) {
			ds, reports := st.(codec.DirtyState)
			if reports != reporting[name] {
				t.Errorf("%s: codec.DirtyState %t, want %t", name, reports, reporting[name])
			}
			if !reports {
				continue
			}
			seen++
			if pad := reflect.ValueOf(st).Elem().FieldByName("Pad").Bytes(); len(pad) != 48 || bytes.ContainsFunc(pad, func(r rune) bool { return r != 0 }) {
				t.Errorf("%s: a run's Execute calls wrote Pad: % x", name, pad)
			}
			t.Run(name, func(t *testing.T) {
				r := model.NewRand(9)
				enc := ds.MarshalState(nil) // what the kernel holds
				older := [][]byte{append([]byte(nil), enc...)}
				var data, delta []byte
				var at []codec.Region
				for step := 0; step < 1000; step++ {
					if step%40 == 39 {
						img := older[r.Intn(len(older))]
						back, err := ds.UnmarshalState(img)
						if err != nil {
							t.Fatalf("step %d: decoding an older encoding: %v", step, err)
						}
						ds, enc = back.(codec.DirtyState), append(enc[:0], img...)
						continue
					}
					mutate(t, ds, &r)
					prev := append([]byte(nil), enc...)
					var ok bool
					if data, at, ok = ds.MarshalDirty(data[:0], at[:0]); !ok {
						t.Fatalf("step %d: cannot tell what changed", step)
					}
					var err error
					if delta, err = codec.PatchRegions(delta[:0], enc, at, data); err != nil {
						t.Fatalf("step %d: regions %v over %d bytes: %v", step, at, len(data), err)
					}
					fresh := ds.Clone().(codec.DeltaState).MarshalState(nil)
					if !bytes.Equal(enc, fresh) {
						t.Fatalf("step %d: patched in place from %v the encoding reads\n%x, a fresh one\n%x", step, at, enc, fresh)
					}
					if want := codec.AppendDelta(nil, prev, fresh); !bytes.Equal(delta, want) {
						t.Fatalf("step %d: delta %x from the report, %x from the two encodings", step, delta, want)
					}
					if step%7 == 0 {
						older = append(older, fresh)
					}
				}
			})
		}
	}
	if seen != len(reporting) {
		t.Errorf("the bundled models produced %d of the %d reporting states", seen, len(reporting))
	}
}
