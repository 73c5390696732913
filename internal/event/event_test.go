package event

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"gowarp/internal/vtime"
)

func sample() *Event {
	return &Event{
		SendTime: 10,
		RecvTime: 25,
		Sender:   3,
		Receiver: 7,
		ID:       42,
		SendSeq:  2,
		Kind:     5,
		Payload:  []byte{1, 2, 3, 4},
	}
}

func TestAnti(t *testing.T) {
	e := sample()
	a := e.Anti()
	if !a.IsAnti() || e.IsAnti() {
		t.Fatal("sign handling broken")
	}
	if !a.SameIdentity(e) || !e.SameIdentity(a) {
		t.Error("anti must share identity with its positive")
	}
	if a.RecvTime != e.RecvTime || a.SendTime != e.SendTime || a.SendSeq != e.SendSeq {
		t.Error("anti must share timestamps and ordering key")
	}
	if len(a.Payload) != 0 {
		t.Error("anti must not carry payload")
	}
	if c := Compare(a, e); c >= 0 {
		t.Errorf("anti must sort before its positive, got %d", c)
	}
}

func TestSameContent(t *testing.T) {
	e := sample()
	same := *e
	same.ID = 999 // identity does not participate in content
	if !e.SameContent(&same) {
		t.Error("identical content must match despite different IDs")
	}
	for name, mut := range map[string]func(*Event){
		"receiver": func(o *Event) { o.Receiver++ },
		"recvtime": func(o *Event) { o.RecvTime++ },
		"sendtime": func(o *Event) { o.SendTime++ },
		"sendseq":  func(o *Event) { o.SendSeq++ },
		"kind":     func(o *Event) { o.Kind++ },
		"paylen":   func(o *Event) { o.Payload = o.Payload[:2] },
		"paybyte":  func(o *Event) { o.Payload = []byte{1, 2, 3, 9} },
	} {
		o := *e
		o.Payload = append([]byte(nil), e.Payload...)
		mut(&o)
		if e.SameContent(&o) {
			t.Errorf("%s mutation must break content equality", name)
		}
	}
}

func TestCompareOrder(t *testing.T) {
	// Construct events in intended order and verify pairwise consistency.
	mk := func(recv vtime.Time, recvr, sender ObjectID, send vtime.Time, seq uint32, sign Sign, id uint64) *Event {
		return &Event{RecvTime: recv, Receiver: recvr, Sender: sender,
			SendTime: send, SendSeq: seq, Sign: sign, ID: id}
	}
	ordered := []*Event{
		mk(1, 0, 0, 0, 0, Positive, 0),
		mk(2, 0, 0, 0, 0, Positive, 0),
		mk(2, 1, 0, 0, 0, Positive, 0),
		mk(2, 1, 1, 0, 0, Positive, 0),
		mk(2, 1, 1, 1, 0, Positive, 0),
		mk(2, 1, 1, 1, 1, Negative, 7),
		mk(2, 1, 1, 1, 1, Positive, 7),
		mk(2, 1, 1, 1, 1, Positive, 8),
	}
	for i := range ordered {
		for j := range ordered {
			got := Compare(ordered[i], ordered[j])
			switch {
			case i < j && got >= 0:
				t.Errorf("Compare(%d,%d) = %d, want <0", i, j, got)
			case i > j && got <= 0:
				t.Errorf("Compare(%d,%d) = %d, want >0", i, j, got)
			case i == j && got != 0:
				t.Errorf("Compare(%d,%d) = %d, want 0", i, j, got)
			}
		}
	}
}

// genEvent builds a pseudo-random event from a seed.
func genEvent(r *rand.Rand) *Event {
	e := &Event{
		SendTime: vtime.Time(r.Intn(5)),
		RecvTime: vtime.Time(5 + r.Intn(5)),
		Sender:   ObjectID(r.Intn(3)),
		Receiver: ObjectID(r.Intn(3)),
		ID:       uint64(r.Intn(10)),
		SendSeq:  uint32(r.Intn(3)),
		Kind:     uint32(r.Intn(3)),
	}
	if r.Intn(2) == 0 {
		e.Sign = Negative
	}
	if n := r.Intn(4); n > 0 {
		e.Payload = make([]byte, n)
		r.Read(e.Payload)
	}
	return e
}

func TestCompareIsTotalOrderProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		a, b, c := genEvent(r), genEvent(r), genEvent(r)
		// Antisymmetry.
		if Compare(a, b) != -Compare(b, a) {
			t.Fatalf("antisymmetry violated: %v vs %v", a, b)
		}
		// Transitivity via sorting consistency.
		evs := []*Event{a, b, c}
		sort.Slice(evs, func(i, j int) bool { return Less(evs[i], evs[j]) })
		for i := 0; i+1 < len(evs); i++ {
			if Compare(evs[i], evs[i+1]) > 0 {
				t.Fatalf("sort produced out-of-order pair")
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(send, recv int64, sender, receiver int32, id uint64, seq uint32, anti bool, kind uint32, payload []byte) bool {
		e := &Event{
			SendTime: vtime.Time(send),
			RecvTime: vtime.Time(recv),
			Sender:   ObjectID(sender),
			Receiver: ObjectID(receiver),
			ID:       id,
			SendSeq:  seq,
			Kind:     kind,
			Payload:  payload,
		}
		if anti {
			e.Sign = Negative
		}
		buf := e.Encode(nil)
		if len(buf) != headerSize+len(payload) {
			return false
		}
		got, rest, err := Decode(buf)
		if err != nil || len(rest) != 0 {
			return false
		}
		if got.SendTime != e.SendTime || got.RecvTime != e.RecvTime ||
			got.Sender != e.Sender || got.Receiver != e.Receiver ||
			got.ID != e.ID || got.SendSeq != e.SendSeq ||
			got.Sign != e.Sign || got.Kind != e.Kind {
			return false
		}
		if len(got.Payload) != len(e.Payload) {
			return false
		}
		for i := range got.Payload {
			if got.Payload[i] != e.Payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEncodeMany(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var buf []byte
	var evs []*Event
	for i := 0; i < 50; i++ {
		e := genEvent(r)
		evs = append(evs, e)
		buf = e.Encode(buf)
	}
	for _, want := range evs {
		got, rest, err := Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = rest
		if Compare(got, want) != 0 || !got.SameIdentity(want) {
			t.Fatalf("round-trip mismatch: got %v want %v", got, want)
		}
	}
	if len(buf) != 0 {
		t.Errorf("%d trailing bytes", len(buf))
	}
}

func TestDecodeTruncated(t *testing.T) {
	e := sample()
	buf := e.Encode(nil)
	for i := 0; i < len(buf); i++ {
		if _, _, err := Decode(buf[:i]); err != ErrTruncated {
			t.Fatalf("Decode of %d/%d bytes: err = %v, want ErrTruncated", i, len(buf), err)
		}
	}
}

func TestStringForms(t *testing.T) {
	if Positive.String() != "+" || Negative.String() != "-" {
		t.Error("sign strings broken")
	}
	if s := sample().String(); s == "" {
		t.Error("empty event string")
	}
}
