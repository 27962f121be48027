package template

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"syslogdigest/internal/syslogmsg"
)

func mkMsgs(code string, details ...string) []syslogmsg.Message {
	out := make([]syslogmsg.Message, len(details))
	for i, d := range details {
		out[i] = syslogmsg.Message{
			Index:  uint64(i),
			Time:   time.Date(2010, 1, 10, 0, 0, i, 0, time.UTC),
			Router: "r1",
			Code:   code,
			Detail: d,
		}
	}
	return out
}

// TestLearnTable4 reproduces the paper's Table 3 -> Table 4 example: twenty
// BGP-5-ADJCHANGE messages with varying neighbor IPs and VRF ids must yield
// exactly the five masked sub types.
func TestLearnTable4(t *testing.T) {
	var details []string
	mk := func(ip, vrf, tail string, n int) {
		for i := 0; i < n; i++ {
			details = append(details, fmt.Sprintf("neighbor 192.168.%d.%s vpn vrf 1000:%s %s", i, ip, vrf, tail))
		}
	}
	mk("42", "1001", "Up", 4)
	mk("26", "1004", "Down Interface flap", 4)
	mk("250", "1002", "Down BGP Notification sent", 4)
	mk("13", "1000", "Down BGP Notification received", 4)
	mk("230", "1004", "Down Peer closed the session", 4)

	got := Learn(mkMsgs("BGP-5-ADJCHANGE", details...), Options{})
	want := map[string]bool{
		"neighbor * vpn vrf * Up":                             false,
		"neighbor * vpn vrf * Down Interface flap":            false,
		"neighbor * vpn vrf * Down BGP Notification sent":     false,
		"neighbor * vpn vrf * Down BGP Notification received": false,
		"neighbor * vpn vrf * Down Peer closed the session":   false,
	}
	if len(got) != len(want) {
		var lines []string
		for _, g := range got {
			lines = append(lines, g.String())
		}
		t.Fatalf("learned %d templates, want %d:\n%s", len(got), len(want), strings.Join(lines, "\n"))
	}
	for _, g := range got {
		key := strings.Join(g.Words, " ")
		if _, ok := want[key]; !ok {
			t.Fatalf("unexpected template %q", key)
		}
		want[key] = true
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("missing template %q", k)
		}
	}
}

// TestLearnLinkFlapTemplates checks the Table 2 message formats reduce to
// the paper's t1..t4 templates.
func TestLearnLinkFlapTemplates(t *testing.T) {
	var msgs []syslogmsg.Message
	for i, intf := range []string{"Serial1/0.10/10:0", "Serial1/0.20/20:0", "Serial2/0.10/2:0"} {
		for _, state := range []string{"down", "up"} {
			msgs = append(msgs, mkMsgs("LINK-3-UPDOWN",
				fmt.Sprintf("Interface %s, changed state to %s", intf, state))...)
			msgs = append(msgs, mkMsgs("LINEPROTO-5-UPDOWN",
				fmt.Sprintf("Line protocol on Interface %s, changed state to %s", intf, state))...)
		}
		_ = i
	}
	got := Learn(msgs, Options{})
	if len(got) != 4 {
		var lines []string
		for _, g := range got {
			lines = append(lines, g.String())
		}
		t.Fatalf("learned %d templates, want 4:\n%s", len(got), strings.Join(lines, "\n"))
	}
	byStr := make(map[string]bool)
	for _, g := range got {
		byStr[g.String()] = true
	}
	for _, want := range []string{
		"LINK-3-UPDOWN Interface *, changed state to down",
		"LINK-3-UPDOWN Interface *, changed state to up",
		"LINEPROTO-5-UPDOWN Line protocol on Interface *, changed state to down",
		"LINEPROTO-5-UPDOWN Line protocol on Interface *, changed state to up",
	} {
		if !byStr[want] {
			t.Errorf("missing %q; have %v", want, byStr)
		}
	}
}

// TestLearnPruning: a variable word the masker cannot recognize (usernames)
// must not explode into per-username templates — the >K child rule collapses
// them into one wildcard template.
func TestLearnPruning(t *testing.T) {
	var details []string
	for i := 0; i < 50; i++ {
		details = append(details, fmt.Sprintf("login failed for user usr%c%c on vty", 'a'+i%26, 'a'+(i/3)%26))
	}
	got := Learn(mkMsgs("SEC-6-LOGINFAIL", details...), Options{})
	if len(got) != 1 {
		var lines []string
		for _, g := range got {
			lines = append(lines, g.String())
		}
		t.Fatalf("learned %d templates, want 1:\n%s", len(got), strings.Join(lines, "\n"))
	}
	s := strings.Join(got[0].Words, " ")
	if s != "login failed for user * on vty" {
		t.Fatalf("pattern = %q", s)
	}
}

// TestLearnKeepsRareConstantWord: the paper notes a constant like
// "GigabitEthernet" enabled on only one interface type may be absorbed into
// the template — acceptable. But distinct small sub types (< K of them) must
// stay distinct.
func TestLearnFewSubtypesStayDistinct(t *testing.T) {
	var details []string
	for i := 0; i < 20; i++ {
		details = append(details, fmt.Sprintf("Controller T3 %d/0, changed state to down", i%8))
		details = append(details, fmt.Sprintf("Controller T3 %d/0, changed state to up", i%8))
		details = append(details, fmt.Sprintf("Controller T3 %d/0, being reset", i%8))
	}
	got := Learn(mkMsgs("CONTROLLER-5-UPDOWN", details...), Options{})
	if len(got) != 3 {
		var lines []string
		for _, g := range got {
			lines = append(lines, g.String())
		}
		t.Fatalf("learned %d templates, want 3:\n%s", len(got), strings.Join(lines, "\n"))
	}
}

func TestLearnSingleMessage(t *testing.T) {
	got := Learn(mkMsgs("SYS-5-RESTART", "System restarted by admin"), Options{})
	if len(got) != 1 {
		t.Fatalf("templates = %d", len(got))
	}
	if got[0].String() != "SYS-5-RESTART System restarted by admin" {
		t.Fatalf("pattern = %q", got[0].String())
	}
}

func TestLearnEmpty(t *testing.T) {
	if got := Learn(nil, Options{}); len(got) != 0 {
		t.Fatalf("templates from empty corpus = %d", len(got))
	}
}

func TestLearnDeterministicIDs(t *testing.T) {
	msgs := append(
		mkMsgs("B-1-X", "beta one", "beta two"),
		mkMsgs("A-1-X", "alpha thing")...,
	)
	a := Learn(msgs, Options{})
	b := Learn(msgs, Options{})
	if len(a) != len(b) {
		t.Fatal("nondeterministic count")
	}
	for i := range a {
		if !a[i].Equal(b[i]) || a[i].ID != b[i].ID {
			t.Fatalf("run difference at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Codes are processed in sorted order: A before B.
	if a[0].Code != "A-1-X" {
		t.Fatalf("first template code = %q, want A-1-X", a[0].Code)
	}
}

func TestMatcherSpecificityWins(t *testing.T) {
	msgs := mkMsgs("LINK-3-UPDOWN",
		"Interface Serial1/0/1:0, changed state to down",
		"Interface Serial2/0/1:0, changed state to down",
		"Interface Serial1/0/1:0, changed state to up",
		"Interface Serial2/0/1:0, changed state to up",
	)
	m := NewMatcher(Learn(msgs, Options{}))
	got, ok := m.Match("LINK-3-UPDOWN", "Interface Serial9/0/9:0, changed state to down")
	if !ok {
		t.Fatal("no match")
	}
	if !strings.HasSuffix(strings.Join(got.Words, " "), "down") {
		t.Fatalf("matched %q, want the 'down' template", got.String())
	}
	got, ok = m.Match("LINK-3-UPDOWN", "Interface Serial9/0/9:0, changed state to up")
	if !ok || !strings.HasSuffix(strings.Join(got.Words, " "), "up") {
		t.Fatalf("matched %v %v, want the 'up' template", got, ok)
	}
}

func TestMatcherUnknownCode(t *testing.T) {
	m := NewMatcher(nil)
	if _, ok := m.Match("NOPE-1-NOPE", "whatever"); ok {
		t.Fatal("match on empty matcher")
	}
}

func TestMatcherNoTemplateMatches(t *testing.T) {
	ts := []Template{MustTemplate(0, "X-1-Y|alpha beta gamma")}
	m := NewMatcher(ts)
	if _, ok := m.Match("X-1-Y", "alpha gamma beta"); ok {
		t.Fatal("out-of-order literals must not match")
	}
	if _, ok := m.Match("X-1-Y", "alpha beta gamma"); !ok {
		t.Fatal("exact literal sequence must match")
	}
	if _, ok := m.Match("X-1-Y", "prefix alpha mid beta gamma suffix"); !ok {
		t.Fatal("subsequence with extra words must match")
	}
}

// Property: every message in the learning corpus is matched by some learned
// template of its code, and the matched template's literals appear in it.
func TestLearnedTemplatesCoverCorpus(t *testing.T) {
	var msgs []syslogmsg.Message
	for i := 0; i < 30; i++ {
		msgs = append(msgs, mkMsgs("BGP-5-ADJCHANGE",
			fmt.Sprintf("neighbor 10.0.%d.1 vpn vrf 1000:%d Up", i, 1000+i%5),
			fmt.Sprintf("neighbor 10.0.%d.2 vpn vrf 1000:%d Down Interface flap", i, 1000+i%5),
		)...)
		msgs = append(msgs, mkMsgs("SYS-1-CPURISINGTHRESHOLD",
			fmt.Sprintf("Threshold: Total CPU Utilization(Total/Intr): %d%%/1%%, Top 3 processes (Pid/Util): 2/71%%, 8/6%%, 7/3%%", 80+i%20),
		)...)
	}
	m := NewMatcher(Learn(msgs, Options{}))
	for _, msg := range msgs {
		tpl, ok := m.Match(msg.Code, msg.Detail)
		if !ok {
			t.Fatalf("no template matches corpus message %q %q", msg.Code, msg.Detail)
		}
		if tpl.Code != msg.Code {
			t.Fatalf("matched template of wrong code: %v for %v", tpl.Code, msg.Code)
		}
	}
}

func TestFractionMatching(t *testing.T) {
	truth := []Template{
		MustTemplate(0, "A-1-B|x * y"),
		MustTemplate(1, "A-1-B|x * z"),
	}
	learned := []Template{
		MustTemplate(10, "A-1-B|x * y"),
		MustTemplate(11, "C-1-D|other"),
	}
	if got := FractionMatching(learned, truth); got != 0.5 {
		t.Fatalf("FractionMatching = %v, want 0.5", got)
	}
	if got := FractionMatching(learned, nil); got != 0 {
		t.Fatalf("FractionMatching(empty truth) = %v", got)
	}
}

func TestIsWildcard(t *testing.T) {
	for _, w := range []string{"*", "*,", "(*)", "*."} {
		if !IsWildcard(w) {
			t.Errorf("IsWildcard(%q) = false", w)
		}
	}
	for _, w := range []string{"x*", "word", "", "**x"} {
		if IsWildcard(w) {
			t.Errorf("IsWildcard(%q) = true", w)
		}
	}
}

func TestMustTemplatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for missing '|'")
		}
	}()
	MustTemplate(0, "no separator here")
}

func TestLCS(t *testing.T) {
	a := []string{"a", "b", "c", "d"}
	b := []string{"x", "b", "d", "y"}
	got := lcs(a, b)
	if strings.Join(got, " ") != "b d" {
		t.Fatalf("lcs = %v", got)
	}
	if lcs(nil, a) != nil {
		t.Fatal("lcs with empty should be nil")
	}
}

func TestRemoveSubsequence(t *testing.T) {
	seq := []string{"a", "b", "a", "c"}
	got := removeSubsequence(seq, []string{"a", "c"})
	if strings.Join(got, " ") != "b a" {
		t.Fatalf("removeSubsequence = %v", got)
	}
	// Missing words are skipped without consuming others.
	got = removeSubsequence(seq, []string{"z"})
	if strings.Join(got, " ") != "a b a c" {
		t.Fatalf("removeSubsequence with absent word = %v", got)
	}
}

func TestTemplateStringAndLiterals(t *testing.T) {
	tpl := MustTemplate(3, "LINK-3-UPDOWN|Interface *, changed state to down")
	if tpl.String() != "LINK-3-UPDOWN Interface *, changed state to down" {
		t.Fatalf("String = %q", tpl.String())
	}
	lits := tpl.Literals()
	if strings.Join(lits, " ") != "Interface changed state to down" {
		t.Fatalf("Literals = %v", lits)
	}
}
