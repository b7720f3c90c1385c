package store

import (
	"encoding/binary"
	"fmt"
)

// Snapshot codec: the append/read helper behind the checkpoint payload
// and the binary blobs of the larger commit-bus subscribers (search
// index, receipts, supply-chain graph). Every field is a uvarint, a
// zigzag varint, a byte, a fixed-width byte run, or a uvarint length
// followed by that many bytes.
// Encoders choose a canonical order for anything that comes from a map,
// so one state always encodes to the same bytes.

// SnapWriter appends snapshot fields to a growing buffer.
type SnapWriter struct {
	buf []byte
}

// NewSnapWriter starts a buffer with room for sizeHint bytes.
func NewSnapWriter(sizeHint int) *SnapWriter {
	return &SnapWriter{buf: make([]byte, 0, sizeHint)}
}

// Uvarint appends v as an unsigned varint.
func (w *SnapWriter) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Varint appends v as a zigzag varint.
func (w *SnapWriter) Varint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Bool appends b as one byte.
func (w *SnapWriter) Bool(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Fixed appends b verbatim (the reader must know its length).
func (w *SnapWriter) Fixed(b []byte) { w.buf = append(w.buf, b...) }

// Bytes appends b with a uvarint length prefix.
func (w *SnapWriter) Bytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Str appends s with a uvarint length prefix.
func (w *SnapWriter) Str(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Data returns the encoded bytes.
func (w *SnapWriter) Data() []byte { return w.buf }

// SnapReader decodes fields written by a SnapWriter. Errors are sticky:
// after the first malformed field every read returns a zero value, and
// Done reports the error. Lengths and counts are checked against the
// bytes that remain before anything is allocated, so a corrupt blob can
// neither panic nor make the reader allocate more than its own size.
type SnapReader struct {
	buf []byte
	off int
	err error
}

// NewSnapReader reads fields from data.
func NewSnapReader(data []byte) *SnapReader { return &SnapReader{buf: data} }

// Err returns the first decoding error, if any.
func (r *SnapReader) Err() error { return r.err }

// Fail records a decoding error (a malformed field, or a value the
// caller's format forbids); only the first one is kept.
func (r *SnapReader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: snapshot at byte %d: %s", ErrCorrupt, r.off, fmt.Sprintf(format, args...))
	}
}

// remaining is the number of unread bytes.
func (r *SnapReader) remaining() int { return len(r.buf) - r.off }

// Uvarint reads an unsigned varint.
func (r *SnapReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.Fail("bad uvarint")
		return 0
	}
	r.off += n
	return v
}

// Varint reads a zigzag varint.
func (r *SnapReader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.Fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

// Count reads an element count for a sequence whose elements take at
// least minSize bytes each, rejecting counts the remaining bytes cannot
// hold.
func (r *SnapReader) Count(minSize int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.remaining()/minSize) {
		r.Fail("count %d exceeds the %d bytes left", n, r.remaining())
		return 0
	}
	return int(n)
}

// Bool reads one byte that must be 0 or 1.
func (r *SnapReader) Bool() bool {
	b := r.Fixed(1)
	if b == nil {
		return false
	}
	if b[0] > 1 {
		r.Fail("bad bool %d", b[0])
		return false
	}
	return b[0] == 1
}

// Fixed returns the next n bytes. The slice aliases the input.
func (r *SnapReader) Fixed(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > r.remaining() {
		r.Fail("%d bytes wanted, %d left", n, r.remaining())
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// Bytes reads a length-prefixed byte run into a fresh slice (nil when
// empty).
func (r *SnapReader) Bytes() []byte {
	b := r.Fixed(r.Count(1))
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// Str reads a length-prefixed string.
func (r *SnapReader) Str() string { return string(r.Fixed(r.Count(1))) }

// Done returns the first decoding error, or an error if unread bytes
// remain.
func (r *SnapReader) Done() error {
	if r.err == nil && r.remaining() != 0 {
		r.Fail("%d trailing bytes", r.remaining())
	}
	return r.err
}
