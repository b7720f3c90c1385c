package store

import (
	"bytes"
	"errors"
	"testing"
)

func TestSnapCodecRoundTrip(t *testing.T) {
	w := NewSnapWriter(0)
	w.Uvarint(300)
	w.Varint(-7)
	w.Bool(true)
	w.Fixed([]byte{9, 8})
	w.Bytes(nil)
	w.Bytes([]byte("blob"))
	w.Str("text")

	r := NewSnapReader(w.Data())
	if v := r.Uvarint(); v != 300 {
		t.Fatalf("uvarint %d", v)
	}
	if v := r.Varint(); v != -7 {
		t.Fatalf("varint %d", v)
	}
	if !r.Bool() {
		t.Fatal("bool")
	}
	if b := r.Fixed(2); !bytes.Equal(b, []byte{9, 8}) {
		t.Fatalf("fixed %v", b)
	}
	if b := r.Bytes(); b != nil {
		t.Fatalf("empty bytes decoded as %v", b)
	}
	if b := r.Bytes(); string(b) != "blob" {
		t.Fatalf("bytes %q", b)
	}
	if s := r.Str(); s != "text" {
		t.Fatalf("str %q", s)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapReaderRejects: every bounds check reports ErrCorrupt, and the
// first error sticks.
func TestSnapReaderRejects(t *testing.T) {
	huge := NewSnapWriter(0)
	huge.Uvarint(1 << 40)
	for name, tc := range map[string]struct {
		data []byte
		read func(r *SnapReader)
	}{
		"truncated uvarint":   {[]byte{0x80}, func(r *SnapReader) { r.Uvarint() }},
		"count beyond input":  {huge.Data(), func(r *SnapReader) { r.Count(1) }},
		"length beyond input": {huge.Data(), func(r *SnapReader) { r.Bytes() }},
		"bad bool":            {[]byte{2}, func(r *SnapReader) { r.Bool() }},
		"trailing byte":       {[]byte{1}, func(r *SnapReader) {}},
	} {
		r := NewSnapReader(tc.data)
		tc.read(r)
		err := r.Done()
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err=%v want ErrCorrupt", name, err)
		}
		r.Fail("later")
		if r.Uvarint() != 0 || r.Str() != "" || r.Done() != err {
			t.Fatalf("%s: first error did not stick", name)
		}
	}
}
