package gen

import (
	"testing"
	"time"

	"syslogdigest/internal/locdict"
	"syslogdigest/internal/syslogmsg"
	"syslogdigest/internal/template"
)

func smallSpec(kind DatasetKind) Spec {
	return Spec{
		Kind:      kind,
		Routers:   20,
		Seed:      7,
		Duration:  12 * time.Hour,
		RateScale: 0.5,
	}
}

func generate(t *testing.T, spec Spec) *Dataset {
	t.Helper()
	ds, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestGenerateDeterministic(t *testing.T) {
	for _, kind := range []DatasetKind{DatasetA, DatasetB} {
		a := generate(t, smallSpec(kind))
		b := generate(t, smallSpec(kind))
		if len(a.Messages) != len(b.Messages) {
			t.Fatalf("dataset %v: message counts differ: %d vs %d", kind, len(a.Messages), len(b.Messages))
		}
		for i := range a.Messages {
			if a.Messages[i].Format() != b.Messages[i].Format() {
				t.Fatalf("dataset %v: message %d differs", kind, i)
			}
		}
		spec2 := smallSpec(kind)
		spec2.Seed = 8
		c := generate(t, spec2)
		if len(a.Messages) == len(c.Messages) {
			same := true
			for i := range a.Messages {
				if a.Messages[i].Format() != c.Messages[i].Format() {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("dataset %v: different seeds produced identical streams", kind)
			}
		}
	}
}

func TestGenerateSortedAndIndexed(t *testing.T) {
	ds := generate(t, smallSpec(DatasetA))
	if len(ds.Messages) == 0 {
		t.Fatal("no messages generated")
	}
	for i := range ds.Messages {
		if ds.Messages[i].Index != uint64(i) {
			t.Fatalf("message %d has index %d", i, ds.Messages[i].Index)
		}
		if i > 0 && ds.Messages[i].Time.Before(ds.Messages[i-1].Time) {
			t.Fatalf("messages not time-sorted at %d", i)
		}
		if ds.Messages[i].Time.Nanosecond() != 0 {
			t.Fatalf("message %d has sub-second timestamp", i)
		}
	}
}

func TestGenerateVendorCodes(t *testing.T) {
	for _, tc := range []struct {
		kind DatasetKind
		want syslogmsg.Vendor
	}{{DatasetA, syslogmsg.VendorV1}, {DatasetB, syslogmsg.VendorV2}} {
		ds := generate(t, smallSpec(tc.kind))
		for _, m := range ds.Messages {
			ci := syslogmsg.ParseCode(m.Code)
			if ci.Vendor != tc.want {
				t.Fatalf("dataset %v produced %v-vendor code %q", tc.kind, ci.Vendor, m.Code)
			}
		}
	}
}

func TestGenerateMessagesRoundTrip(t *testing.T) {
	ds := generate(t, smallSpec(DatasetB))
	for i := range ds.Messages {
		line := ds.Messages[i].Format()
		back, err := syslogmsg.ParseLineBytes([]byte(line), ds.Messages[i].Index)
		if err != nil {
			t.Fatalf("message %d does not round trip: %v (%q)", i, err, line)
		}
		if back.Format() != line {
			t.Fatalf("message %d format drift", i)
		}
	}
}

func TestGenerateConditionsAccountMessages(t *testing.T) {
	ds := generate(t, smallSpec(DatasetA))
	total := 0
	for _, c := range ds.Conditions {
		if c.Messages <= 0 {
			t.Fatalf("condition %q has %d messages", c.Kind, c.Messages)
		}
		if c.End.Before(c.Start) {
			t.Fatalf("condition %q has End before Start", c.Kind)
		}
		if len(c.Routers) == 0 || c.Region == "" {
			t.Fatalf("condition %q missing routers/region: %+v", c.Kind, c)
		}
		total += c.Messages
	}
	if total != len(ds.Messages) {
		t.Fatalf("condition message counts %d != stream length %d", total, len(ds.Messages))
	}

	// Every message carries the label of the condition that emitted it:
	// each condition's label count is its Messages, and a labeled message
	// lies inside its condition's span.
	if len(ds.Labels) != len(ds.Messages) {
		t.Fatalf("%d labels for %d messages", len(ds.Labels), len(ds.Messages))
	}
	counts := make([]int, len(ds.Conditions))
	for i, l := range ds.Labels {
		if l < -1 || int(l) >= len(ds.Conditions) {
			t.Fatalf("message %d label %d out of range", i, l)
		}
		if l == -1 {
			continue
		}
		counts[l]++
		c, m := &ds.Conditions[l], &ds.Messages[i]
		if m.Time.Before(c.Start) || m.Time.After(c.End) {
			t.Fatalf("message %d at %v outside its condition %q [%v, %v]", i, m.Time, c.Kind, c.Start, c.End)
		}
	}
	for i, c := range ds.Conditions {
		if counts[i] != c.Messages {
			t.Fatalf("condition %d %q: %d labeled messages, Messages = %d", i, c.Kind, counts[i], c.Messages)
		}
	}
}

func TestGenerateLocationsResolve(t *testing.T) {
	ds := generate(t, smallSpec(DatasetA))
	dict, err := locdict.Build(ds.Net.Configs)
	if err != nil {
		t.Fatal(err)
	}
	resolved := 0
	linkMsgs := 0
	for _, m := range ds.Messages {
		if m.Code != "LINK-3-UPDOWN" {
			continue
		}
		linkMsgs++
		// Detail: "Interface <name>, changed state to ..."
		var name string
		if _, err := splitInterfaceDetail(m.Detail, &name); err != nil {
			t.Fatalf("unparseable link detail %q", m.Detail)
		}
		if _, ok := dict.Normalize(m.Router, name); ok {
			resolved++
		}
	}
	if linkMsgs == 0 {
		t.Fatal("no LINK messages generated")
	}
	if resolved != linkMsgs {
		t.Fatalf("only %d/%d link interfaces resolve in the dictionary", resolved, linkMsgs)
	}
}

// splitInterfaceDetail extracts the interface token from a LINK detail.
func splitInterfaceDetail(detail string, name *string) (int, error) {
	var state string
	n, err := sscanf2(detail, name, &state)
	return n, err
}

func sscanf2(detail string, name *string, state *string) (int, error) {
	// "Interface X, changed state to down"
	var a, b string
	if n, err := fmtSscanf(detail, &a, &b); err != nil {
		return n, err
	}
	*name = a[:len(a)-1] // strip trailing comma
	*state = b
	return 2, nil
}

func fmtSscanf(detail string, a, b *string) (int, error) {
	// minimal: second whitespace token is "X,», last is the state.
	fields := splitFields(detail)
	if len(fields) < 6 || fields[0] != "Interface" {
		return 0, errBadDetail
	}
	*a = fields[1]
	*b = fields[len(fields)-1]
	return 2, nil
}

var errBadDetail = errorString("bad detail")

type errorString string

func (e errorString) Error() string { return string(e) }

func splitFields(s string) []string {
	var out []string
	start := -1
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ' ' {
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	return out
}

func TestGenerateTemplatesLearnable(t *testing.T) {
	// The learner must recover most of the ground-truth templates from a
	// generated corpus (full-scale accuracy is measured in experiments).
	spec := smallSpec(DatasetA)
	spec.Duration = 24 * time.Hour
	ds := generate(t, spec)
	learned := template.Learn(ds.Messages, template.Options{})
	truth := GroundTruthTemplates(DatasetA)
	frac := template.FractionMatching(learned, truth)
	if frac < 0.5 {
		t.Fatalf("template accuracy %.2f too low for a 1-day corpus", frac)
	}
}

func TestGeneratePIMScenario(t *testing.T) {
	spec := smallSpec(DatasetB)
	spec.Rates.PIMFailure = 4
	ds := generate(t, spec)
	var pim *Condition
	for i := range ds.Conditions {
		if ds.Conditions[i].Kind == "pim-dual-failure" {
			pim = &ds.Conditions[i]
			break
		}
	}
	if pim == nil {
		t.Skip("no PIM scenario drawn at this seed")
	}
	if len(pim.Routers) < 3 {
		t.Fatalf("PIM condition routers = %v, want endpoints + hop", pim.Routers)
	}
	// The condition must include 5-minute-spaced tunnel retries.
	retries := 0
	for _, m := range ds.Messages {
		if m.Code == "MPLS-MINOR-mplsTunnelRetry" {
			retries++
		}
	}
	if retries < 10 {
		t.Fatalf("tunnel retries = %d, want a long retry tail", retries)
	}
	// PIM loss on both endpoints.
	losses := make(map[string]bool)
	for _, m := range ds.Messages {
		if m.Code == "PIM-MAJOR-pimNbrLoss" {
			losses[m.Router] = true
		}
	}
	if len(losses) < 2 {
		t.Fatalf("PIM losses on %d routers, want both endpoints", len(losses))
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(Spec{Routers: 2}); err == nil {
		t.Fatal("2-router spec accepted")
	}
}

func TestRatesNegativeDisables(t *testing.T) {
	spec := smallSpec(DatasetA)
	spec.Rates = Rates{
		LinkFlap: -1, Controller: -1, BGPFlap: -1, CPUSpike: -1,
		PeriodicMsg: -1, Noise: -1, EnvAlarm: -1, TunnelFlap: -1,
		Config: 50,
	}
	ds := generate(t, spec)
	for _, m := range ds.Messages {
		if m.Code != "SYS-5-CONFIG_I" {
			t.Fatalf("disabled scenario still emitted %q", m.Code)
		}
	}
	if len(ds.Messages) == 0 {
		t.Fatal("config scenario produced nothing")
	}
}

func TestGroundTruthTemplatesWellFormed(t *testing.T) {
	for _, kind := range []DatasetKind{DatasetA, DatasetB} {
		ts := GroundTruthTemplates(kind)
		if len(ts) < 15 {
			t.Fatalf("dataset %v ground truth has only %d templates", kind, len(ts))
		}
		seen := make(map[string]bool)
		for _, tpl := range ts {
			if len(tpl.Words) == 0 {
				t.Fatalf("empty template %+v", tpl)
			}
			key := tpl.String()
			if seen[key] {
				t.Fatalf("duplicate ground truth template %q", key)
			}
			seen[key] = true
		}
	}
}

func TestDatasetKindString(t *testing.T) {
	if DatasetA.String() != "A" || DatasetB.String() != "B" {
		t.Fatal("kind names wrong")
	}
}
