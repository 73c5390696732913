package codec

import "encoding/binary"

// This file is a self-contained LZ77-style byte compressor, dependency-free
// by design (the container bakes no compression libraries). The format is a
// simple two-op stream chosen for the kernel's payloads — event batches
// with repeated headers and padded states that are mostly zeros or mostly
// unchanged:
//
//	header:  uvarint(decompressedLen)
//	ops:     0x00 uvarint(n) <n literal bytes>
//	         0x01 uvarint(offset) uvarint(n)   — copy n bytes from offset
//	                                             back in the output (n may
//	                                             exceed offset: RLE)
//
// The compressor is greedy with a 4-byte hash table; zero runs and
// repeated structures collapse into offset-1 copies. Compression is
// deterministic: equal inputs produce equal outputs, which the
// byte-identical differential checks rely on.

const (
	opLiteral = 0x00
	opCopy    = 0x01

	lzHashBits = 13
	lzMinMatch = 4
	lzMaxDist  = 1 << 16
)

func lzHash(u uint32) uint32 {
	return (u * 0x9E3779B1) >> (32 - lzHashBits)
}

// Compress appends the compressed form of src to dst and returns the
// extended slice. Decompress inverts it.
func Compress(dst, src []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(src)))
	var table [1 << lzHashBits]int32 // position+1 of a recent 4-byte sequence

	emitLiteral := func(lit []byte) []byte {
		if len(lit) == 0 {
			return dst
		}
		dst = append(dst, opLiteral)
		dst = binary.AppendUvarint(dst, uint64(len(lit)))
		return append(dst, lit...)
	}

	i, litStart := 0, 0
	for i+lzMinMatch <= len(src) {
		cur := binary.LittleEndian.Uint32(src[i:])
		h := lzHash(cur)
		cand := int(table[h]) - 1
		table[h] = int32(i + 1)
		if cand < 0 || i-cand > lzMaxDist ||
			binary.LittleEndian.Uint32(src[cand:]) != cur {
			i++
			continue
		}
		// Extend the match past the seeding 4 bytes.
		n := lzMinMatch
		for i+n < len(src) && src[cand+n] == src[i+n] {
			n++
		}
		dst = emitLiteral(src[litStart:i])
		dst = append(dst, opCopy)
		dst = binary.AppendUvarint(dst, uint64(i-cand))
		dst = binary.AppendUvarint(dst, uint64(n))
		// Seed the table inside the match sparsely so long runs stay
		// linear-time but future references can still land mid-run.
		for j := i + 1; j < i+n && j+lzMinMatch <= len(src); j += 7 {
			table[lzHash(binary.LittleEndian.Uint32(src[j:]))] = int32(j + 1)
		}
		i += n
		litStart = i
	}
	dst = emitLiteral(src[litStart:])
	return dst
}

// maxInflated bounds the length a compressed block may decompress to: as much
// as a wire frame may carry raw (comm.MaxFrameBody). A copy op expands a few
// bytes into any length, so without a bound a short corrupt block — and blocks
// arrive in wire frames — could ask for the machine's memory. PackInto stores
// anything longer uncompressed, so what it packs always unpacks.
const maxInflated = 1 << 26

// Decompress inverts Compress, returning the original bytes. The length in
// the header is input like the rest: it caps what the ops may produce, but
// past a first 64 KiB the output grows as they produce it, so a corrupt block
// costs no more memory than the bytes it really decodes to.
func Decompress(src []byte) ([]byte, error) {
	want, k := binary.Uvarint(src)
	if k <= 0 {
		return nil, corrupt("compressed header")
	}
	if want > maxInflated {
		return nil, corrupt("decompressed length")
	}
	src = src[k:]
	out := make([]byte, 0, min(want, 1<<16))
	for len(src) > 0 {
		op := src[0]
		src = src[1:]
		switch op {
		case opLiteral:
			n, k := binary.Uvarint(src)
			if k <= 0 || uint64(len(src)-k) < n {
				return nil, corrupt("literal op")
			}
			if n > want-uint64(len(out)) {
				return nil, corrupt("decompressed length")
			}
			out = append(out, src[k:k+int(n)]...)
			src = src[k+int(n):]
		case opCopy:
			off, k := binary.Uvarint(src)
			if k <= 0 {
				return nil, corrupt("copy offset")
			}
			src = src[k:]
			n, k := binary.Uvarint(src)
			if k <= 0 {
				return nil, corrupt("copy length")
			}
			src = src[k:]
			if off == 0 || off > uint64(len(out)) {
				return nil, corrupt("copy source")
			}
			if n > want-uint64(len(out)) {
				return nil, corrupt("decompressed length")
			}
			// Byte-wise copy: overlapping sources (RLE) are the point.
			at := len(out) - int(off)
			for j := 0; j < int(n); j++ {
				out = append(out, out[at+j])
			}
		default:
			return nil, corrupt("op byte")
		}
	}
	if uint64(len(out)) != want {
		return nil, corrupt("decompressed length")
	}
	return out, nil
}
