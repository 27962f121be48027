// Package cluster is the shard wire protocol (PR 10): it distributes the
// router-local half of the sharded streaming engine across processes.
//
// The protocol is deliberately asymmetric, mirroring the PR 5 split. The
// dispatcher (merger process) streams message sub-batches to each shard
// process; a shard answers every batch — empty ones included, preserving
// the one-result-per-shard-per-batch sync invariant — with a decision
// batch: per message, the Seq of its temporal join predecessor and the
// Seqs of its rule-window join predecessors, as deltas. Decisions carry no
// state, so the merger replays the exact serial interleaving and the
// output is byte-identical to the in-process engine at any shard count.
//
// Framing: every frame is
//
//	magic(4) version(1) type(1) payloadLen(4) crc32(4) payload
//
// big-endian, CRC-32 (IEEE) over the payload. Only the handshake frames
// (Hello, Welcome) carry JSON payloads — once per connection, robustness
// over bytes. Every other frame is a hand-rolled varint encoding with
// symbol references: the first occurrence of a string defines the next
// dictionary id inline, every later occurrence is a 1-based varint
// reference, so interned router/location symbols cost ~2 bytes each. Batch
// frames share one incremental dictionary for the life of a connection; a
// shard's part-state (the State frame a shard answers every 64 batches,
// and the Restore frame that re-seeds a session) carries its own, so it
// can be stored and re-sent into a later session. A reference beyond the
// table is a desync and kills the connection — the decoder never guesses.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Version is the protocol version. A frame with any other version is
// rejected (ErrVersion): neither side speaks an older or a newer protocol.
const Version = 5

const (
	frameMagic = 0x53445731 // "SDW1"
	headerLen  = 14
	// MaxFrameBytes bounds a single frame; anything larger is corruption
	// (a full batch of maximal messages is far below this).
	MaxFrameBytes = 16 << 20
)

// FrameType discriminates the payload.
type FrameType uint8

const (
	// FrameHello opens a session: shard identity, grouping config, KB
	// fingerprint (JSON, client → server).
	FrameHello FrameType = 1
	// FrameWelcome acknowledges or rejects a Hello (JSON, server → client).
	FrameWelcome FrameType = 2
	// FrameRestore re-seeds the shard's RouterLocal and dictionary before a
	// replay; it follows a Hello that announces it (binary, client → server).
	FrameRestore FrameType = 3
	// FrameBatch carries one message sub-batch (binary, client → server).
	FrameBatch FrameType = 4
	// FrameDecisions carries one batch's join decisions, local stats, and
	// shard-side error, completing the batch (binary, server → client).
	FrameDecisions FrameType = 5
	// FrameStateReq asks for the shard's LocalPartState as of the batches
	// processed so far (binary, client → server).
	FrameStateReq FrameType = 6
	// FrameState answers a StateReq (binary, server → client).
	FrameState FrameType = 7
)

// Decode errors. All corruption paths return wrapped sentinels so tests
// (and reconnect logic) can classify them; none panic.
var (
	ErrBadMagic   = errors.New("cluster: bad frame magic")
	ErrVersion    = errors.New("cluster: unsupported protocol version")
	ErrFrameSize  = errors.New("cluster: frame exceeds size bound")
	ErrCRC        = errors.New("cluster: frame crc mismatch")
	ErrTruncated  = errors.New("cluster: truncated payload")
	ErrDictDesync = errors.New("cluster: symbol dictionary desync")
	ErrMalformed  = errors.New("cluster: malformed payload")
)

// putHeader fills h[:headerLen] for a frame of type typ carrying payload.
func putHeader(h []byte, typ FrameType, payload []byte) {
	binary.BigEndian.PutUint32(h[0:4], frameMagic)
	h[4] = Version
	h[5] = byte(typ)
	binary.BigEndian.PutUint32(h[6:10], uint32(len(payload)))
	binary.BigEndian.PutUint32(h[10:14], crc32.ChecksumIEEE(payload))
}

// beginFrame reserves a frame header at the end of dst. The caller appends
// the payload right behind it and seals the frame with finishFrame, so a
// payload is encoded in place instead of built apart and copied in.
func beginFrame(dst []byte, typ FrameType) []byte {
	dst = append(dst, make([]byte, headerLen)...)
	dst[len(dst)-headerLen+5] = byte(typ)
	return dst
}

// finishFrame fills in the header beginFrame reserved at b[start:] for the
// payload that runs from behind it to the end of b.
func finishFrame(b []byte, start int) []byte {
	h := b[start : start+headerLen]
	putHeader(h, FrameType(h[5]), b[start+headerLen:])
	return b
}

// appendFrame appends a complete frame (header + payload) to dst.
func appendFrame(dst []byte, typ FrameType, payload []byte) []byte {
	start := len(dst)
	return finishFrame(append(beginFrame(dst, typ), payload...), start)
}

// writeFrame writes one frame to w (meant to be buffered): the header, then
// the payload where it lies.
func writeFrame(w io.Writer, typ FrameType, payload []byte) error {
	var h [headerLen]byte
	putHeader(h[:], typ, payload)
	if _, err := w.Write(h[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads and validates one frame, reusing buf for the payload
// when it fits. The returned payload aliases the (possibly grown) buffer,
// which is also returned for reuse; it is valid until the next call.
func readFrame(r io.Reader, buf []byte) (FrameType, []byte, []byte, error) {
	var h [headerLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return 0, nil, buf, err
	}
	if binary.BigEndian.Uint32(h[0:4]) != frameMagic {
		return 0, nil, buf, ErrBadMagic
	}
	if h[4] != Version {
		return 0, nil, buf, fmt.Errorf("%w: %d, want %d", ErrVersion, h[4], Version)
	}
	typ := FrameType(h[5])
	n := binary.BigEndian.Uint32(h[6:10])
	if n > MaxFrameBytes {
		return 0, nil, buf, fmt.Errorf("%w: %d bytes", ErrFrameSize, n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, buf, err
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(h[10:14]) {
		return 0, nil, buf, ErrCRC
	}
	return typ, payload, buf, nil
}

// wireReader is a bounds-checked cursor over a frame payload.
type wireReader struct {
	b   []byte
	off int
}

func (r *wireReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.off += n
	return v, nil
}

func (r *wireReader) varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.off += n
	return v, nil
}

func (r *wireReader) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(r.b)-r.off) {
		return nil, ErrTruncated
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

func (r *wireReader) u8() (byte, error) {
	if r.off >= len(r.b) {
		return 0, ErrTruncated
	}
	b := r.b[r.off]
	r.off++
	return b, nil
}

// u64 reads a fixed 8-byte little-endian word (float bits).
func (r *wireReader) u64() (uint64, error) {
	b, err := r.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// count reads a slice length written by appendCount: -1 for a nil slice.
// Every element takes at least minBytes, so a length the unread bytes
// cannot hold is truncation, refused before anything is allocated for it.
func (r *wireReader) count(minBytes int) (int, error) {
	u, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if u == 0 {
		return -1, nil
	}
	if u-1 > uint64((len(r.b)-r.off)/minBytes) {
		return 0, ErrTruncated
	}
	return int(u - 1), nil
}

// flags reads a flag byte, refusing bits outside mask.
func (r *wireReader) flags(mask byte) (byte, error) {
	f, err := r.u8()
	if err != nil {
		return 0, err
	}
	if f&^mask != 0 {
		return 0, fmt.Errorf("%w: flags %#x", ErrMalformed, f)
	}
	return f, nil
}

// appendCount writes a slice length so that count tells a nil slice from an
// empty one: the JSON checkpoint a part ends up in does.
func appendCount(b []byte, n int, isNil bool) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

// rest returns the unread remainder.
func (r *wireReader) rest() []byte { return r.b[r.off:] }

// done refuses bytes left after a payload's last field.
func (r *wireReader) done() error {
	if n := len(r.b) - r.off; n > 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrMalformed, n)
	}
	return nil
}
