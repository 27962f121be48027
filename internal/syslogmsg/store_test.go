package syslogmsg

import (
	"testing"
	"time"
)

func storeMsgs(t *testing.T, n int, base uint64) []Message {
	t.Helper()
	t0 := time.Date(2010, 1, 10, 0, 0, 0, 0, time.UTC)
	out := make([]Message, n)
	for i := range out {
		out[i] = Message{
			Index:  base + uint64(i),
			Time:   t0.Add(time.Duration(i) * time.Minute),
			Router: "r1", Code: "A-1-B", Detail: "d",
		}
	}
	return out
}

func TestStoreGet(t *testing.T) {
	msgs := storeMsgs(t, 10, 100)
	s, err := NewStore(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d", s.Len())
	}
	m, ok := s.Get(105)
	if !ok || m.Index != 105 {
		t.Fatalf("Get(105) = %v, %v", m, ok)
	}
	if _, ok := s.Get(99); ok {
		t.Fatal("Get below base succeeded")
	}
	if _, ok := s.Get(110); ok {
		t.Fatal("Get past end succeeded")
	}
}

func TestStoreGetAllSkipsUnknown(t *testing.T) {
	s, err := NewStore(storeMsgs(t, 5, 0))
	if err != nil {
		t.Fatal(err)
	}
	got := s.GetAll([]uint64{0, 3, 99, 4})
	if len(got) != 3 {
		t.Fatalf("GetAll = %d messages", len(got))
	}
	if got[1].Index != 3 {
		t.Fatalf("order lost: %v", got)
	}
}

func TestStoreValidation(t *testing.T) {
	msgs := storeMsgs(t, 5, 0)
	msgs[3].Index = 7 // gap
	if _, err := NewStore(msgs); err == nil {
		t.Fatal("gap accepted")
	}
	msgs = storeMsgs(t, 5, 0)
	msgs[2].Time = msgs[2].Time.Add(-time.Hour)
	if _, err := NewStore(msgs); err == nil {
		t.Fatal("time disorder accepted")
	}
	s, err := NewStore(nil)
	if err != nil || s.Len() != 0 {
		t.Fatalf("empty store: %v, len %d", err, s.Len())
	}
	if _, ok := s.Get(0); ok {
		t.Fatal("empty store Get succeeded")
	}
}
