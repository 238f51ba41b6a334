package replay_test

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"cycada/internal/replay"
)

// craft builds a trace file around a hand-written body: magic, version and
// the flate-compressed body, whose fields are appended by the caller.
func craft(t *testing.T, body []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	out.WriteString("CYTR")
	out.Write(binary.AppendUvarint(nil, 1))
	fw, err := flate.NewWriter(&out, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(body); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// header is a body prefix: an empty label and a w x h screen.
func header(w, h uint64) []byte {
	b := binary.AppendUvarint(nil, 0)
	b = binary.AppendUvarint(b, w)
	return binary.AppendUvarint(b, h)
}

func uvarints(b []byte, vs ...uint64) []byte {
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// A string count of 2^62 used to reach make([]string, 0, n) and panic with
// "makeslice: cap out of range".
func TestDecodeHugeStringCountFails(t *testing.T) {
	data := craft(t, uvarints(header(320, 200), 1<<62))
	if _, err := replay.Decode(data); err == nil {
		t.Fatal("Decode: err = nil, want an implausible string count")
	}
}

// A string count of 2^24 used to allocate 2^24 string headers and then fail
// once per missing string, taking seconds to reject a tiny file.
func TestDecodeLargeStringCountFailsFast(t *testing.T) {
	data := craft(t, uvarints(header(320, 200), 1<<24))
	start := time.Now()
	_, err := replay.Decode(data)
	if err == nil {
		t.Fatal("Decode: err = nil, want an implausible string count")
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("Decode took %v to reject a %d-byte file, want under 100ms", d, len(data))
	}
}

func TestDecodeRejectsImplausibleCounts(t *testing.T) {
	cases := map[string][]byte{
		// More events than the remaining bytes could encode.
		"event count": uvarints(header(320, 200), 0, 1<<20),
		// A final frame bigger than the bytes left, before any allocation.
		"final frame short": append(uvarints(header(320, 200), 0, 0), append([]byte{1}, uvarints(nil, 4096, 4096)...)...),
		// w*h wraps to 0 in 64-bit arithmetic.
		"final frame overflow": append(uvarints(header(320, 200), 0, 0), append([]byte{1}, uvarints(nil, 1<<32, 1<<32)...)...),
	}
	for name, body := range cases {
		if _, err := replay.Decode(craft(t, body)); err == nil {
			t.Errorf("%s: Decode err = nil, want error", name)
		}
	}
}

func TestDecodeRejectsBadScreen(t *testing.T) {
	for _, wh := range [][2]uint64{{0, 200}, {320, 0}, {1<<26 + 1, 1}, {1 << 14, 1<<12 + 1}, {1 << 32, 1 << 32}, {1 << 63, 2}} {
		body := uvarints(header(wh[0], wh[1]), 0, 0, 0)
		if _, err := replay.Decode(craft(t, body)); err == nil {
			t.Errorf("screen %dx%d: Decode err = nil, want error", wh[0], wh[1])
		}
	}
	// The largest accepted screen still decodes.
	if _, err := replay.Decode(craft(t, uvarints(header(1<<13, 1<<13), 0, 0, 0))); err != nil {
		t.Fatalf("screen 8192x8192: %v", err)
	}
}

// A string return value goes through the string table like a string
// argument; Encode used to skip it when interning and wrote index 0, the
// first event's name.
func TestCodecStringReturnRoundTrips(t *testing.T) {
	tr := &replay.Trace{
		Label: "ret", ScreenW: 4, ScreenH: 4,
		Events: []replay.Event{{Kind: replay.KGLES, TID: 1, Name: "glGetString", Args: []any{7937}, Ret: "Cycada"}},
	}
	data, err := replay.Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := replay.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("round trip: Ret = %#v, want %#v", got.Events[0].Ret, tr.Events[0].Ret)
	}
}

// Each decoded trace re-encodes, and a second round trip reproduces the
// first encoding byte for byte: decoding loses nothing Encode writes. The
// seed corpus in testdata/fuzz/FuzzDecode holds the three golden traces.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := replay.Decode(data)
		if err != nil {
			return
		}
		enc, err := replay.Encode(tr)
		if err != nil {
			t.Fatalf("decoded trace does not encode: %v", err)
		}
		tr2, err := replay.Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		enc2, err := replay.Encode(tr2)
		if err != nil {
			t.Fatalf("second encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encode(decode(encode(decode(x)))) differs from encode(decode(x)): %d vs %d bytes", len(enc2), len(enc))
		}
	})
}
