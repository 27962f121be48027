package syslogmsg

import "fmt"

// Store retains raw messages for event drill-down: an event digest carries
// raw message indices (the paper's "index field that allows us to retrieve
// these raw syslog messages"), and the store answers those lookups.
//
// Messages must be index-sorted with contiguous indices (the shape the
// reader and generator produce); lookups are then O(1) and range scans
// O(log n + k).
type Store struct {
	base uint64
	msgs []Message
}

// NewStore indexes a message batch. It validates that indices are
// contiguous and ascending so Get can be arithmetic.
func NewStore(msgs []Message) (*Store, error) {
	if len(msgs) == 0 {
		return &Store{}, nil
	}
	base := msgs[0].Index
	for i := range msgs {
		if msgs[i].Index != base+uint64(i) {
			return nil, fmt.Errorf("syslogmsg: store requires contiguous indices; message %d has index %d, want %d",
				i, msgs[i].Index, base+uint64(i))
		}
		if i > 0 && msgs[i].Time.Before(msgs[i-1].Time) {
			return nil, fmt.Errorf("syslogmsg: store requires time-sorted messages; index %d out of order", msgs[i].Index)
		}
	}
	return &Store{base: base, msgs: msgs}, nil
}

// Len returns the number of stored messages.
func (s *Store) Len() int { return len(s.msgs) }

// Get returns the message with the given raw index.
func (s *Store) Get(index uint64) (*Message, bool) {
	if len(s.msgs) == 0 || index < s.base || index >= s.base+uint64(len(s.msgs)) {
		return nil, false
	}
	return &s.msgs[index-s.base], true
}

// GetAll resolves a set of indices, silently skipping unknown ones (an
// event may reference messages rotated out of the store).
func (s *Store) GetAll(indices []uint64) []Message {
	out := make([]Message, 0, len(indices))
	for _, idx := range indices {
		if m, ok := s.Get(idx); ok {
			out = append(out, *m)
		}
	}
	return out
}
