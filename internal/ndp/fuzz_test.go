package ndp

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"ansmet/internal/vecmath"
)

// The decoder fuzz targets assert the protocol's contract: arbitrary 64 B
// payloads (including encoded-then-mutated ones) must decode to either a
// valid value or a typed error — never a panic — and whatever decodes
// successfully must re-encode to a payload that decodes to the same value.

func payloadFrom(data []byte) [64]byte {
	var p [64]byte
	copy(p[:], data)
	return p
}

func FuzzDecodeConfigure(f *testing.F) {
	good := EncodeConfigure(Config{
		Elem: vecmath.Float32, Metric: vecmath.L2, Dim: 96,
		PrefixLen: 4, PrefixVal: 0b1011, Nc: 8, Tc: 4, Nf: 16,
	})
	f.Add(good[:])
	bad := good
	bad[0] ^= 0x80 // element type out of range
	f.Add(bad[:])
	f.Add(make([]byte, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := DecodeConfigure(payloadFrom(data))
		if err != nil {
			return
		}
		round, err := DecodeConfigure(EncodeConfigure(cfg))
		if err != nil {
			t.Fatalf("re-encode of accepted config failed: %v", err)
		}
		if round != cfg {
			t.Fatalf("round trip changed config: %+v != %+v", round, cfg)
		}
	})
}

func FuzzDecodeSetSearch(f *testing.F) {
	good, cnt, err := EncodeSetSearch([]Task{{Addr: 7, Threshold: 1.5}, {Addr: 9, Threshold: 2}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good[:], cnt)
	f.Add(good[:], 0)
	f.Add(good[:], TasksPerQSHR+1)
	nan := good
	binary.LittleEndian.PutUint32(nan[12:], math.Float32bits(float32(math.NaN())))
	f.Add(nan[:], cnt)

	f.Fuzz(func(t *testing.T, data []byte, n int) {
		tasks, err := DecodeSetSearch(payloadFrom(data), n)
		if err != nil {
			return
		}
		if len(tasks) != n {
			t.Fatalf("decoded %d tasks, want %d", len(tasks), n)
		}
		re, cnt, err := EncodeSetSearch(tasks)
		if err != nil || cnt != n {
			t.Fatalf("re-encode of accepted tasks: cnt=%d err=%v", cnt, err)
		}
		round, err := DecodeSetSearch(re, cnt)
		if err != nil {
			t.Fatalf("round trip decode failed: %v", err)
		}
		for i := range round {
			if round[i].Addr != tasks[i].Addr {
				t.Fatalf("task %d addr changed in round trip", i)
			}
		}
	})
}

func FuzzDecodeQuery(f *testing.F) {
	q := []float32{1, -2, 3.5, 0.25, 8, -0.5}
	chunks, err := EncodeQueryChunks(vecmath.Float32, q)
	if err != nil {
		f.Fatal(err)
	}
	var raw []byte
	for _, c := range chunks {
		raw = append(raw, c[:]...)
	}
	f.Add(raw, uint16(len(q)), byte(vecmath.Float32))
	f.Add(raw[:64], uint16(len(q)), byte(vecmath.Float32))
	f.Add([]byte{}, uint16(0), byte(vecmath.Uint8))
	nan := slices.Clone(raw)
	binary.LittleEndian.PutUint32(nan[4:], 0x7fc00001)
	f.Add(nan, uint16(len(q)), byte(vecmath.Float32))
	f.Add([]byte{0x00, 0x80, 0x80, 0x3f}, uint16(2), byte(vecmath.BFloat16)) // −0 and 1
	f.Add([]byte{0x00, 0x80, 0x00, 0x3c}, uint16(2), byte(vecmath.Float16))  // −0 and 1

	f.Fuzz(func(t *testing.T, data []byte, dim uint16, elemSel byte) {
		elem := vecmath.ElemType(int(elemSel) % (int(vecmath.Float32) + 1))
		chunks := make([][64]byte, (len(data)+63)/64)
		for i := range chunks {
			copy(chunks[i][:], data[i*64:])
		}
		// Must not panic regardless of dim/elem/chunk contents.
		out, err := DecodeQuery(elem, int(dim), chunks)
		if err != nil {
			return
		}
		if len(out) != int(dim) {
			t.Fatalf("decoded %d values, want %d", len(out), dim)
		}
		for d, v := range out {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("component %d decoded to %v", d, v)
			}
		}
		// The payload is the row: encoding what came out gives back the
		// first dim·Bytes bytes, −0 included.
		n := int(dim) * elem.Bytes()
		if n > QueryFieldBytes {
			return // decodable, but wider than a host may send
		}
		re, err := EncodeQueryChunks(elem, out)
		if err != nil {
			t.Fatalf("re-encode of a decoded query: %v", err)
		}
		var got, want []byte
		for _, c := range re {
			got = append(got, c[:]...)
		}
		for _, c := range chunks {
			want = append(want, c[:]...)
		}
		if !bytes.Equal(got[:n], want[:n]) {
			t.Fatalf("%v dim %d: re-encoded payload % x, want % x", elem, dim, got[:n], want[:n])
		}
	})
}

func FuzzDecodePollResponse(f *testing.F) {
	good := PollResponse{
		Dist:     [TasksPerQSHR]float32{1, 2.5, 3},
		DoneMask: 0b101, FetchCnt: 77, Completed: true, FaultMask: 0b10,
	}.Encode()
	f.Add(good[:])
	nan := good
	binary.LittleEndian.PutUint32(nan[4:], math.Float32bits(float32(math.NaN())))
	f.Add(nan[:])
	f.Add(make([]byte, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		pr := DecodePollResponse(payloadFrom(data))
		round := DecodePollResponse(pr.Encode())
		// Compare encodings, not structs: Dist may legitimately carry NaN
		// bit patterns, which struct equality rejects bit-for-bit matches of.
		if round.Encode() != pr.Encode() {
			t.Fatalf("round trip changed response: %+v != %+v", round, pr)
		}
	})
}
