package template_test

// The learner reads each distinct (code, detail) once and weights it by its
// message count. These tests hold it to the per-message reference
// (template.LearnPerMessage) on any corpus, and hold its allocations to the
// number of distinct details, not the number of messages.

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"syslogdigest/internal/gen"
	"syslogdigest/internal/syslogmsg"
	"syslogdigest/internal/template"
)

// fuzzCorpus builds a corpus from a pool of distinct lines, "CODE detail"
// each (at most 256), and a pick per message: message i is line
// picks[i] mod the pool size, so lines repeat and interleave as picks do.
func fuzzCorpus(lines string, picks []byte) []syslogmsg.Message {
	type line struct{ code, detail string }
	var pool []line
	for _, l := range strings.Split(lines, "\n") {
		code, detail, _ := strings.Cut(l, " ")
		if code != "" && len(pool) < 256 {
			pool = append(pool, line{code, detail})
		}
	}
	if len(pool) == 0 {
		return nil
	}
	base := time.Date(2010, 1, 10, 0, 0, 0, 0, time.UTC)
	msgs := make([]syslogmsg.Message, len(picks))
	for i, p := range picks {
		l := pool[int(p)%len(pool)]
		msgs[i] = syslogmsg.Message{Time: base.Add(time.Duration(i) * time.Second), Router: "r1", Code: l.code, Detail: l.detail}
	}
	return msgs
}

// alphabetSeed is a fuzz seed over a small code/word alphabet: n lines of
// a few words each, masked words (addresses, interfaces, numbers) among
// them, and a pick sequence that repeats a few lines often and the rest
// rarely, interleaved.
func alphabetSeed(seed int64, n, picks int) (string, []byte) {
	rng := rand.New(rand.NewSource(seed))
	codes := []string{"LINK-3-UPDOWN", "BGP-5-ADJCHANGE", "SYS-5-CONFIG"}
	words := []string{
		"Interface", "Serial1/0", "Serial2/0:1", "changed", "state", "to",
		"down", "up", "neighbor", "10.0.0.1", "10.0.0.2", "vrf", "1000:1",
		"42", "7", "peer", "reset", "(hold", "time)",
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(codes[rng.Intn(len(codes))])
		for k := 1 + rng.Intn(6); k > 0; k-- {
			b.WriteString(" " + words[rng.Intn(len(words))])
		}
		b.WriteString("\n")
	}
	ps := make([]byte, picks)
	for i := range ps {
		if rng.Intn(3) > 0 {
			ps[i] = byte(rng.Intn(3))
		} else {
			ps[i] = byte(rng.Intn(n))
		}
	}
	return b.String(), ps
}

// genSeed is a fuzz seed from a generated corpus: its first 64 distinct
// (code, detail) lines, picked in the corpus's own order (1 024 picks).
func genSeed(tb testing.TB) (string, []byte) {
	ds, err := gen.Generate(gen.Spec{Kind: gen.DatasetA, Routers: 8, Seed: 1, Duration: 6 * time.Hour, RateScale: 0.5})
	if err != nil {
		tb.Fatal(err)
	}
	index := make(map[string]int)
	var b strings.Builder
	var picks []byte
	for _, m := range ds.Messages {
		if strings.ContainsRune(m.Detail, '\n') {
			continue
		}
		l := m.Code + " " + m.Detail
		j, ok := index[l]
		if !ok {
			if len(index) == 64 {
				continue
			}
			j = len(index)
			index[l] = j
			b.WriteString(l + "\n")
		}
		if picks = append(picks, byte(j)); len(picks) == 1024 {
			break
		}
	}
	return b.String(), picks
}

// FuzzLearnTemplates checks Learn against the per-message reference on any
// corpus, at GOMAXPROCS 1 and 4, masked and unmasked.
func FuzzLearnTemplates(f *testing.F) {
	for _, seed := range []int64{1, 2} {
		lines, picks := alphabetSeed(seed, 12*int(seed), 200*int(seed))
		f.Add(lines, picks)
	}
	lines, picks := genSeed(f)
	f.Add(lines, picks)
	f.Fuzz(func(t *testing.T, lines string, picks []byte) {
		if len(lines) > 1<<14 || len(picks) > 1<<13 {
			return
		}
		msgs := fuzzCorpus(lines, picks)
		for _, noPreMask := range []bool{false, true} {
			opt := template.Options{NoPreMask: noPreMask}
			want := template.LearnPerMessage(msgs, opt)
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				got := template.Learn(msgs, opt)
				runtime.GOMAXPROCS(prev)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("NoPreMask=%v, GOMAXPROCS %d: Learn\n%sthe per-message reference\n%s", noPreMask, procs, render(got), render(want))
				}
			}
		}
	})
}

// render lists templates one a line, with their IDs.
func render(ts []template.Template) string {
	var b strings.Builder
	for _, tm := range ts {
		fmt.Fprintf(&b, "  %d %s\n", tm.ID, tm)
	}
	return b.String()
}

// TestLearnAllocsPerDistinctDetail learns a corpus, then the same messages
// repeated 20 times in order. Learning reads each distinct (code, detail)
// once, so the repeats add no allocation beyond a small constant: what
// tokenizing and masking, the per-code lists and the trees allocate depends
// only on the distinct details.
func TestLearnAllocsPerDistinctDetail(t *testing.T) {
	ds, err := gen.Generate(gen.Spec{Kind: gen.DatasetA, Routers: 8, Seed: 1, Duration: 6 * time.Hour, RateScale: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	once := ds.Messages
	var repeated []syslogmsg.Message
	for i := 0; i < 20; i++ {
		repeated = append(repeated, once...)
	}
	// AllocsPerRun measures at GOMAXPROCS 1, so learning runs inline.
	allocs := func(msgs []syslogmsg.Message) float64 {
		return testing.AllocsPerRun(3, func() { template.Learn(msgs, template.Options{}) })
	}
	a1, a20 := allocs(once), allocs(repeated)
	t.Logf("%d messages: %.0f allocations; repeated 20 times: %.0f", len(once), a1, a20)
	if a20 > a1+64 {
		t.Fatalf("learning %d messages 20 times over allocated %.0f times, once %.0f: more than 64 apart", len(once), a20, a1)
	}
}
