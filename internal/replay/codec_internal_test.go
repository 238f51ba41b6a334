package replay

import (
	"bytes"
	"compress/flate"
	"testing"
)

// The inflate bound: a body one byte over the limit is rejected, a body at
// the limit is returned whole.
func TestInflateLimit(t *testing.T) {
	var buf bytes.Buffer
	fw, _ := flate.NewWriter(&buf, flate.BestCompression)
	fw.Write(make([]byte, 1000))
	fw.Close()
	if _, err := inflate(buf.Bytes(), 999); err == nil {
		t.Fatal("inflate of 1000 bytes under a 999-byte limit: err = nil")
	}
	body, err := inflate(buf.Bytes(), 1000)
	if err != nil || len(body) != 1000 {
		t.Fatalf("inflate at the limit: %d bytes, %v", len(body), err)
	}
}
