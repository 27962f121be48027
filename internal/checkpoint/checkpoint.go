// Package checkpoint is the persistence layer of the streaming pipeline's
// snapshot/restore (PR 6): a versioned, byte-stable envelope around the
// state the grouping, stream, and core packages capture, plus the atomic
// file protocol the cmds use to survive crashes.
//
// Contract:
//
//   - Versioned: every snapshot carries a format magic and a version
//     number. Decode rejects unknown magics and versions newer than this
//     build — an old binary must fail loudly on a new snapshot rather than
//     restore garbage. Older versions restore as long as the payload decodes
//     (version 1 is the first).
//   - Byte-stable: Encode(Decode(snap)) == snap for any snapshot this
//     build wrote. The payload structs reach that by construction — fixed
//     struct field order, maps flattened to sorted slices, times as Unix
//     nanoseconds — and the golden round-trip tests pin it.
//   - Keyed by the low watermark: the envelope carries the engine's low
//     watermark (the newest message time whose effects the snapshot fully
//     contains) so operators can pick a restart offset for replayable
//     sources without decoding the payload.
//
// What is captured is the snapshotting packages' business; what is NOT
// captured is a shared rule: runtime knobs (worker counts, cache sizes,
// reorder options), derived indexes, the match cache, and metrics are all
// excluded and rebuilt — a snapshot restores behavior, not configuration.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"syslogdigest/internal/locdict"
)

const (
	// Format is the envelope magic.
	Format = "syslogdigest-checkpoint"
	// Version is the snapshot version this build writes. Decode accepts
	// [1, Version]. Version 2 stores the engine's progress once, in the
	// merger state; a version-1 snapshot also carries copies of it (the
	// streamer's released frontier, the engine's last accepted time, each
	// local's watermark), which restore ignores. A version-1 build given a
	// version-2 snapshot would miss them, so it refuses it.
	Version = 2
)

// The two ways a snapshot is refused. Every error a restore returns for the
// snapshot's bytes wraps one of them (errors.Is), so a caller can tell a
// file this build cannot read from a file that is damaged.
var (
	// ErrUnsupportedVersion: the envelope names another format or a version
	// outside [1, Version] — a newer build's snapshot, or not a checkpoint.
	ErrUnsupportedVersion = errors.New("checkpoint: unsupported format or version")
	// ErrCorrupt: the envelope, the payload, or the grouping state's index
	// space does not decode into a consistent state.
	ErrCorrupt = errors.New("checkpoint: corrupt snapshot")
)

// envelope is the outer JSON document. Encode writes the payload as a
// value at depth 1 and Decode reads it straight into the caller's type, so
// each side makes one pass over the payload.
type envelope[P any] struct {
	Format      string `json:"format"`
	Version     int    `json:"version"`
	WatermarkNs int64  `json:"watermark_ns"`
	Payload     P      `json:"payload"`
}

// Encode wraps a payload in the versioned envelope. watermarkNs keys the
// snapshot: the Unix-nanosecond low watermark whose effects the payload
// fully contains (0 when nothing has been processed yet).
func Encode(watermarkNs int64, payload any) ([]byte, error) {
	out, err := json.MarshalIndent(envelope[any]{
		Format:      Format,
		Version:     Version,
		WatermarkNs: watermarkNs,
		Payload:     payload,
	}, "", " ")
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	return append(out, '\n'), nil
}

// Decode validates the envelope and unmarshals the payload into dst,
// returning the snapshot's low watermark. Unknown magics and versions newer
// than this build are ErrUnsupportedVersion, checked before any payload
// error; malformed JSON, a malformed envelope field, and a payload that is
// missing, null or of the wrong shape are ErrCorrupt — Decode never panics
// on corrupted or truncated input.
func Decode[T any](data []byte, dst *T) (int64, error) {
	var env envelope[*T]
	err := json.Unmarshal(data, &env)
	// A syntax error stops before anything is decoded; a type error leaves
	// the other fields decoded, so the envelope is judged before it.
	var syntax *json.SyntaxError
	var typ *json.UnmarshalTypeError
	if errors.As(err, &syntax) || errors.As(err, &typ) && !strings.HasPrefix(typ.Field, "payload") {
		return 0, fmt.Errorf("%w: envelope: %w", ErrCorrupt, err)
	}
	if env.Format != Format {
		return 0, fmt.Errorf("%w: format %q, want %q", ErrUnsupportedVersion, env.Format, Format)
	}
	if env.Version < 1 || env.Version > Version {
		return 0, fmt.Errorf("%w: version %d not in [1, %d] (snapshot from a newer build?)", ErrUnsupportedVersion, env.Version, Version)
	}
	if err != nil {
		return 0, fmt.Errorf("%w: payload: %w", ErrCorrupt, err)
	}
	if env.Payload == nil {
		return 0, fmt.Errorf("%w: no payload", ErrCorrupt)
	}
	*dst = *env.Payload
	return env.WatermarkNs, nil
}

// WriteFile persists a snapshot atomically: write to a temporary file in
// the same directory, sync, then rename over path. A crash mid-write leaves
// the previous snapshot intact; readers never observe a torn file.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	return nil
}

// ReadFile loads a snapshot written with WriteFile.
func ReadFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read: %w", err)
	}
	return data, nil
}

// TimeNs flattens a time to Unix nanoseconds for serialization; the zero
// time maps to 0 (no corpus timestamp is the Unix epoch, so the sentinel is
// unambiguous in practice).
func TimeNs(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// NsTime is the inverse of TimeNs. All pipeline timestamps are UTC wall
// times (the syslog parsers normalize to UTC), so the restored time is
// identical to the captured one.
func NsTime(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// Event is the serialized form of one emitted event, field for field
// lossless so a restored run re-delivers pending events byte-identically.
// The conversions to and from event.Event live in core (this package sits
// below event in the import graph — grouping imports it). Scores survive
// exactly: encoding/json writes float64s in the shortest form that
// round-trips bit-for-bit.
type Event struct {
	ID          int                `json:"id"`
	StartNs     int64              `json:"start_ns"`
	EndNs       int64              `json:"end_ns"`
	Routers     []string           `json:"routers"`
	Locations   []locdict.Location `json:"locations"`
	Templates   []int              `json:"templates"`
	MessageSeqs []int              `json:"message_seqs"`
	RawIndexes  []uint64           `json:"raw_indexes"`
	Label       string             `json:"label"`
	Score       float64            `json:"score"`
}

// Update is the serialized form of one tier-tagged emission record (PR 9):
// the identity header plus the event snapshot, absent for superseded
// records exactly as on the wire. Status uses the event package's string
// form ("provisional", "revised", "superseded", "final"); the conversions
// live in core, beside Event's.
type Update struct {
	EventID      uint64 `json:"event_id"`
	Revision     int    `json:"revision"`
	Status       string `json:"status"`
	SupersededBy uint64 `json:"superseded_by,omitempty"`
	Event        *Event `json:"event,omitempty"`
}
