package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func testCheckpoint() *Checkpoint {
	return &Checkpoint{
		Height:    42,
		HeadID:    "aabbcc",
		StateHash: "ddeeff",
		Subscribers: map[string][]byte{
			"factdb-index":      []byte(`[{"id":"f1"}]`),
			"supplychain-graph": []byte(`[]`),
			"rank-penalties":    nil,
		},
	}
}

func TestCheckpointRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint.ckpt")
	want := testCheckpoint()
	if err := WriteCheckpoint(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Height != want.Height || got.HeadID != want.HeadID || got.StateHash != want.StateHash {
		t.Fatalf("roundtrip mismatch: %+v", got)
	}
	if len(got.Subscribers) != len(want.Subscribers) {
		t.Fatalf("subscribers: %v", got.Subscribers)
	}
	if string(got.Subscribers["factdb-index"]) != string(want.Subscribers["factdb-index"]) {
		t.Fatalf("blob mismatch: %q", got.Subscribers["factdb-index"])
	}
}

func TestCheckpointOverwriteIsAtomicReplace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint.ckpt")
	first := testCheckpoint()
	if err := WriteCheckpoint(path, first); err != nil {
		t.Fatal(err)
	}
	second := testCheckpoint()
	second.Height = 100
	if err := WriteCheckpoint(path, second); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Height != 100 {
		t.Fatalf("height=%d want 100", got.Height)
	}
	// No temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("leftover files: %v", entries)
	}
}

func TestCheckpointMissing(t *testing.T) {
	_, err := ReadCheckpoint(filepath.Join(t.TempDir(), "nope.ckpt"))
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err=%v want ErrNotFound", err)
	}
}

func TestCheckpointDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.ckpt")
	if err := WriteCheckpoint(path, testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"flipped payload byte": append(append([]byte{}, raw[:len(raw)-3]...), raw[len(raw)-3]^0xff, raw[len(raw)-2], raw[len(raw)-1]),
		"truncated":            raw[:len(raw)/2],
		"bad magic":            append([]byte("XXXXXXXX"), raw[8:]...),
		"older format":         append([]byte("TNCKPT01"), raw[8:]...),
		"empty":                {},
	}
	for name, mutated := range cases {
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadCheckpoint(path); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err=%v want ErrCorrupt", name, err)
		}
	}
}

// TestCheckpointNamesOtherFormat: a checkpoint of another format version
// is reported as such, not as an unrelated file.
func TestCheckpointNamesOtherFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint.ckpt")
	raw := encodeCheckpoint(testCheckpoint())
	copy(raw, "TNCKPT01")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadCheckpoint(path)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "format 01, this build reads 02") {
		t.Fatalf("err=%v", err)
	}
}

// FuzzCheckpointPayload: decoding an arbitrary payload never panics, and
// any payload that decodes re-encodes to a payload that decodes to the
// same checkpoint and encodes to the same bytes.
func FuzzCheckpointPayload(f *testing.F) {
	frame := len(checkpointMagic) + 8
	f.Add([]byte{})
	f.Add(encodeCheckpoint(&Checkpoint{})[frame:])
	f.Add(encodeCheckpoint(testCheckpoint())[frame:])
	f.Fuzz(func(t *testing.T, payload []byte) {
		cp, err := decodeCheckpoint(payload)
		if err != nil {
			return
		}
		first := encodeCheckpoint(cp)
		again, err := decodeCheckpoint(first[frame:])
		if err != nil {
			t.Fatalf("re-decoding an encoded checkpoint: %v", err)
		}
		if again.Height != cp.Height || again.HeadID != cp.HeadID || again.StateHash != cp.StateHash ||
			!bytes.Equal(again.Chain, cp.Chain) || len(again.Subscribers) != len(cp.Subscribers) {
			t.Fatalf("round trip changed the checkpoint: %+v vs %+v", again, cp)
		}
		for name, blob := range cp.Subscribers {
			if !bytes.Equal(again.Subscribers[name], blob) {
				t.Fatalf("blob %q changed", name)
			}
		}
		if second := encodeCheckpoint(again); !reflect.DeepEqual(first, second) {
			t.Fatal("encode → decode → encode differs")
		}
	})
}
