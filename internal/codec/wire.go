package codec

import "encoding/binary"

// Append/Reader are the little-endian encoding helpers model states use to
// implement DeltaState without hand-rolling offset arithmetic. Fixed-width
// fields keep successive encodings positionally aligned, which is what
// makes the sparse delta effective.

// AppendUint64 appends v little-endian.
func AppendUint64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// AppendInt64 appends v little-endian.
func AppendInt64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// AppendBytes appends a length-prefixed byte slice.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// HeadRegion is the whole of DirtyState.MarshalDirty for a state whose events
// write only the fixed-width fields in front of its encoding: data is what the
// caller was given with those fields appended from offset from on, and the one
// region reported is the encoding's head, as long as what was appended.
func HeadRegion(data []byte, from int, at []Region) ([]byte, []Region, bool) {
	return data, append(at, Region{Len: len(data) - from}), true
}

// Reader decodes encodings produced with the Append helpers. Errors
// saturate: after the first short read every accessor returns zero values
// and Err reports the failure, so decoders read field-by-field and check
// once at the end.
type Reader struct {
	b   []byte
	bad bool
}

// NewReader returns a reader over data.
func NewReader(data []byte) *Reader { return &Reader{b: data} }

// Uint64 reads the next little-endian uint64.
func (r *Reader) Uint64() uint64 {
	if r.bad || len(r.b) < 8 {
		r.bad = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// Int64 reads the next little-endian int64.
func (r *Reader) Int64() int64 { return int64(r.Uint64()) }

// Bytes reads the next length-prefixed byte slice (nil for length zero).
// The result is a copy; it does not alias the input.
func (r *Reader) Bytes() []byte { return r.BytesInto(nil) }

// BytesInto is Bytes copying over dst: the result reuses dst's capacity
// (reallocating only when the slice does not fit) and is nil for length zero,
// as from Bytes. It is the form an UnmarshalState that fills its receiver in
// place uses — s.Pad = r.BytesInto(s.Pad).
func (r *Reader) BytesInto(dst []byte) []byte {
	if r.bad {
		return nil
	}
	n, k := binary.Uvarint(r.b)
	if k <= 0 || uint64(len(r.b)-k) < n {
		r.bad = true
		return nil
	}
	var out []byte
	if n > 0 {
		out = append(dst[:0], r.b[k:k+int(n)]...)
	}
	r.b = r.b[k+int(n):]
	return out
}

// Ok reports whether every read so far was in bounds. Unlike Err it does not
// require the input to be consumed, so decoders can use it to guard
// count-driven loops against corrupt counts.
func (r *Reader) Ok() bool { return !r.bad }

// Err returns nil when every read so far was in bounds and the encoding is
// fully consumed.
func (r *Reader) Err() error {
	if r.bad {
		return corrupt("state encoding")
	}
	if len(r.b) != 0 {
		return corrupt("state encoding (trailing bytes)")
	}
	return nil
}
