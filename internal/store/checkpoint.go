package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// Checkpoint is a durable cut of a node's derived state: the chain
// height it covers, verification hashes, and one opaque snapshot blob
// per commit-bus subscriber. A node restarting with a valid checkpoint
// restores the blobs and replays only the WAL tail above Height instead
// of re-executing the whole chain (O(tail) instead of O(chain length)).
//
// The file is CRC-guarded like the WAL — [magic][len][crc32][payload] —
// and written atomically (temp file + rename), so a torn or tampered
// checkpoint is detected on read and the caller falls back to full
// replay; the checkpoint is an accelerator, never a trust root. The
// payload is written with the snapshot codec (SnapWriter):
//
//	uvarint height, head id, state hash, chain snapshot,
//	uvarint n, n × (subscriber name, blob)   (names in sorted order)
type Checkpoint struct {
	// Height is the number of chain blocks the snapshot covers.
	Height uint64
	// HeadID is the hex id of the block at Height-1 (empty at height 0);
	// restore verifies it against the reopened chain.
	HeadID string
	// StateHash is the hex contract-state root at Height; restore
	// recomputes the root from the restored state and rejects mismatches.
	StateHash string
	// Chain is the ledger's serialized index snapshot (block ids,
	// transaction locations, per-sender nonces), letting reopen skip
	// decoding and re-validating the checkpointed log prefix.
	Chain []byte
	// Subscribers holds each commit-bus subscriber's snapshot, by name.
	Subscribers map[string][]byte
}

// checkpointMagic guards against reading an unrelated file, and names
// the format version: 02 has a binary payload and binary snapshots for
// the search index, receipts and supply-chain graph, where 01 was gob
// with JSON and gob blobs. A checkpoint of another version reads as
// corrupt, so the node falls back to full replay once and writes the
// current version at its next checkpoint.
var checkpointMagic = [8]byte{'T', 'N', 'C', 'K', 'P', 'T', '0', '2'}

// WriteCheckpoint atomically persists a checkpoint at path.
func WriteCheckpoint(path string, cp *Checkpoint) error {
	buf := encodeCheckpoint(cp)
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return fmt.Errorf("store: checkpoint temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		return fmt.Errorf("store: write checkpoint: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: sync checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: close checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: publish checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpoint loads and verifies a checkpoint. It returns ErrNotFound
// when no checkpoint exists and ErrCorrupt when the frame fails
// verification (bad magic or version, truncated, CRC mismatch, or a
// malformed payload). The returned blobs alias one buffer holding the
// file.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: checkpoint %s", ErrNotFound, path)
		}
		return nil, fmt.Errorf("store: read checkpoint: %w", err)
	}
	if len(raw) < len(checkpointMagic)+8 {
		return nil, fmt.Errorf("%w: checkpoint truncated", ErrCorrupt)
	}
	if magic := raw[:len(checkpointMagic)]; !bytes.Equal(magic, checkpointMagic[:]) {
		if bytes.Equal(magic[:6], checkpointMagic[:6]) {
			return nil, fmt.Errorf("%w: checkpoint format %s, this build reads %s", ErrCorrupt, magic[6:], checkpointMagic[6:])
		}
		return nil, fmt.Errorf("%w: checkpoint bad magic", ErrCorrupt)
	}
	body := raw[len(checkpointMagic):]
	size := binary.BigEndian.Uint32(body[0:4])
	want := binary.BigEndian.Uint32(body[4:8])
	payload := body[8:]
	if uint32(len(payload)) != size {
		return nil, fmt.Errorf("%w: checkpoint length %d want %d", ErrCorrupt, len(payload), size)
	}
	if crc32.ChecksumIEEE(payload) != want {
		return nil, fmt.Errorf("%w: checkpoint crc mismatch", ErrCorrupt)
	}
	cp, err := decodeCheckpoint(payload)
	if err != nil {
		return nil, fmt.Errorf("checkpoint payload: %w", err)
	}
	return cp, nil
}

// encodeCheckpoint returns the framed checkpoint file: magic, payload
// length and CRC, then the payload.
func encodeCheckpoint(cp *Checkpoint) []byte {
	names := make([]string, 0, len(cp.Subscribers))
	size := len(checkpointMagic) + 8 + len(cp.HeadID) + len(cp.StateHash) + len(cp.Chain) + 32
	for name, blob := range cp.Subscribers {
		names = append(names, name)
		size += len(name) + len(blob) + 16
	}
	sort.Strings(names)
	// The frame header is filled in once the payload is known.
	w := NewSnapWriter(size)
	w.Fixed(make([]byte, len(checkpointMagic)+8))
	w.Uvarint(cp.Height)
	w.Str(cp.HeadID)
	w.Str(cp.StateHash)
	w.Bytes(cp.Chain)
	w.Uvarint(uint64(len(names)))
	for _, name := range names {
		w.Str(name)
		w.Bytes(cp.Subscribers[name])
	}
	buf := w.Data()
	payload := buf[len(checkpointMagic)+8:]
	copy(buf, checkpointMagic[:])
	binary.BigEndian.PutUint32(buf[len(checkpointMagic):], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[len(checkpointMagic)+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// decodeCheckpoint parses a checkpoint payload. The chain snapshot and
// subscriber blobs alias payload.
func decodeCheckpoint(payload []byte) (*Checkpoint, error) {
	r := NewSnapReader(payload)
	cp := &Checkpoint{Height: r.Uvarint(), HeadID: r.Str(), StateHash: r.Str()}
	cp.Chain = r.Fixed(r.Count(1))
	// A subscriber entry takes at least two bytes: two lengths.
	n := r.Count(2)
	cp.Subscribers = make(map[string][]byte, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		name := r.Str()
		if _, dup := cp.Subscribers[name]; dup {
			r.Fail("duplicate subscriber %q", name)
		}
		cp.Subscribers[name] = r.Fixed(r.Count(1))
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return cp, nil
}
