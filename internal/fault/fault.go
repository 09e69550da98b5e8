// Package fault is the seeded, scenario-driven fault-injection
// registry (DESIGN.md §17). It exists so every failure-handling path
// in the service — WAL write errors, checkpoint fsync failures, wire
// connections dying mid-frame, slow computations — can be provoked
// deterministically from a test, the chaos harness (egload -chaos) or
// an operator flag (egserve -fault), instead of waiting for the disk
// to actually fill up.
//
// The model is a flat rule list over named injection sites. Code on a
// hot path declares a site by calling Injector.Fire(site) at the
// moment the fault would naturally occur (just before an fsync, after
// reading a frame header, ...). Fire on a nil *Injector is a single
// pointer comparison, so production binaries pay one predictable
// branch per site and nothing else; only a configured injector
// evaluates rules.
//
// Scenarios are text so they can travel through flags, CI matrices
// and fuzzers:
//
//	# one rule per line; '#' comments and blank lines are ignored
//	seed 7
//	wal.fsync error=disk-full after=20
//	ckpt.fsync error=io times=1
//	wire.read drop p=0.02
//	query.compute delay=5ms p=0.5
//
// A rule names a site and combines directives: an error class to
// return, a delay to sleep, a probability, and hit-count gates
// (after=, every=, times=). All randomness comes from the scenario's
// seed, so a scenario replays identically — the property the chaos
// soak's fault-free-oracle comparison depends on.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Site names one injection point threaded through the codebase. The
// inventory below is the complete set; Parse rejects unknown sites so
// a typo in a scenario fails loudly instead of silently injecting
// nothing.
type Site string

const (
	// WALAppend fires inside ingest WAL record writes, before bytes
	// reach the buffered writer. An error here poisons the WAL exactly
	// like a real short write.
	WALAppend Site = "wal.append"
	// WALFsync fires inside the WAL group-commit flush+fsync. An error
	// here is the canonical "disk full" trigger: the sticky WAL error
	// degrades the write path while reads keep serving.
	WALFsync Site = "wal.fsync"
	// CkptWrite fires between checkpoint section writes, after the
	// partial prefix is flushed: a delay here leaves a torn temp file
	// on disk for a crash test to kill the process over.
	CkptWrite Site = "ckpt.write"
	// CkptFsync fires just before the checkpoint temp file's fsync. An
	// error must leave the previous checkpoint generation intact.
	CkptFsync Site = "ckpt.fsync"
	// CkptRename fires between the temp file's fsync and the atomic
	// rename: a delay here leaves a complete but unrenamed temp file.
	CkptRename Site = "ckpt.rename"
	// WireAccept fires as a new EGWP connection is accepted; a drop
	// closes it before the hello.
	WireAccept Site = "wire.accept"
	// WireRead fires per frame read on a server-side EGWP connection;
	// a drop severs the connection mid-stream (the peer sees a partial
	// frame), a delay models a slow or stalled client.
	WireRead Site = "wire.read"
	// WireWrite fires per frame write on a server-side EGWP
	// connection; a drop severs it with a response half-sent.
	WireWrite Site = "wire.write"
	// QueryCompute fires inside the cached-query compute path, adding
	// artificial latency or failing the computation.
	QueryCompute Site = "query.compute"
)

// Sites is the injection-site inventory, sorted, as scenario text
// names them.
var Sites = []Site{
	CkptFsync, CkptRename, CkptWrite,
	QueryCompute,
	WALAppend, WALFsync,
	WireAccept, WireRead, WireWrite,
}

func knownSite(s Site) bool {
	for _, k := range Sites {
		if s == k {
			return true
		}
	}
	return false
}

// Error classes. Injected errors wrap one of these sentinels, so
// callers can both detect "this was injected" (errors.Is against the
// class) and treat it like the real failure it models.
var (
	// ErrDiskFull models ENOSPC from a write or fsync.
	ErrDiskFull = errors.New("no space left on device (injected)")
	// ErrIO models a generic I/O failure.
	ErrIO = errors.New("input/output error (injected)")
	// ErrDropped models a peer vanishing: the connection (or write
	// path) is gone mid-operation.
	ErrDropped = errors.New("connection dropped (injected)")
	// ErrTimeout models an operation exceeding its deadline.
	ErrTimeout = errors.New("operation timed out (injected)")
)

// classes maps scenario error names to sentinels. Order is fixed for
// deterministic encoding.
var classes = []struct {
	name string
	err  error
}{
	{"disk-full", ErrDiskFull},
	{"io", ErrIO},
	{"dropped", ErrDropped},
	{"timeout", ErrTimeout},
}

func classErr(name string) (error, bool) {
	for _, c := range classes {
		if c.name == name {
			return c.err, true
		}
	}
	return nil, false
}

// IsFault reports whether err is (or wraps) an injected fault of any
// class. Layers that degrade gracefully use it to map an injected
// failure onto the same path the real failure would take (a fault is a
// server-side condition, never the client's request being wrong).
func IsFault(err error) bool {
	for _, c := range classes {
		if errors.Is(err, c.err) {
			return true
		}
	}
	return false
}

// Rule is one parsed scenario line: fire at Site, gated by the
// hit-count window and probability, injecting a delay and/or an
// error.
type Rule struct {
	Site Site
	// Err names the error class to inject ("" for delay-only rules).
	Err string
	// Drop injects ErrDropped; sugar for Err="dropped" on connection
	// sites, kept distinct so scenarios read naturally.
	Drop bool
	// Delay is slept before the (possible) error is returned.
	Delay time.Duration
	// P is the per-hit probability in (0,1]; 0 means 1 (always).
	P float64
	// After skips the first N hits of the site.
	After int64
	// Every fires on every Nth eligible hit (0 and 1 mean every hit).
	Every int64
	// Times stops the rule after it has fired N times (0 = unlimited).
	Times int64
}

func (r Rule) err() error {
	if r.Drop {
		return ErrDropped
	}
	if r.Err == "" {
		return nil
	}
	e, _ := classErr(r.Err)
	return e
}

// encode renders the rule in canonical scenario text (directives in a
// fixed order), so Parse∘String round-trips.
func (r Rule) encode() string {
	var b strings.Builder
	b.WriteString(string(r.Site))
	if r.Err != "" {
		fmt.Fprintf(&b, " error=%s", r.Err)
	}
	if r.Drop {
		b.WriteString(" drop")
	}
	if r.Delay > 0 {
		fmt.Fprintf(&b, " delay=%s", r.Delay)
	}
	if r.P > 0 && r.P < 1 {
		fmt.Fprintf(&b, " p=%s", strconv.FormatFloat(r.P, 'g', -1, 64))
	}
	if r.After > 0 {
		fmt.Fprintf(&b, " after=%d", r.After)
	}
	if r.Every > 1 {
		fmt.Fprintf(&b, " every=%d", r.Every)
	}
	if r.Times > 0 {
		fmt.Fprintf(&b, " times=%d", r.Times)
	}
	return b.String()
}

// Scenario is a parsed fault scenario: a seed and a rule list.
type Scenario struct {
	Seed  int64
	Rules []Rule
}

// String renders the scenario in canonical text form; Parse(String())
// yields an equal Scenario (the fuzz target's round-trip invariant).
func (sc *Scenario) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d\n", sc.Seed)
	for _, r := range sc.Rules {
		b.WriteString(r.encode())
		b.WriteByte('\n')
	}
	return b.String()
}

// maxScenario bounds accepted scenario text; anything larger is a
// decoding error, never an allocation amplifier.
const maxScenario = 1 << 16

// maxRules bounds the rule list.
const maxRules = 64

// Parse decodes scenario text. It is strict — unknown sites,
// directives, error classes or malformed values are errors carrying
// the offending line — and total: no input panics (the fuzz target
// enforces this).
func Parse(text string) (*Scenario, error) {
	if len(text) > maxScenario {
		return nil, fmt.Errorf("fault: scenario exceeds %d bytes", maxScenario)
	}
	sc := &Scenario{Seed: 1}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "seed" {
			if len(fields) != 2 {
				return nil, fmt.Errorf("fault: line %d: want 'seed N'", ln+1)
			}
			n, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: line %d: bad seed %q", ln+1, fields[1])
			}
			sc.Seed = n
			continue
		}
		r, err := parseRule(fields)
		if err != nil {
			return nil, fmt.Errorf("fault: line %d: %w", ln+1, err)
		}
		sc.Rules = append(sc.Rules, r)
		if len(sc.Rules) > maxRules {
			return nil, fmt.Errorf("fault: more than %d rules", maxRules)
		}
	}
	return sc, nil
}

func parseRule(fields []string) (Rule, error) {
	r := Rule{Site: Site(fields[0])}
	if !knownSite(r.Site) {
		return r, fmt.Errorf("unknown site %q (known: %s)", fields[0], siteList())
	}
	for _, f := range fields[1:] {
		if f == "drop" {
			r.Drop = true
			continue
		}
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return r, fmt.Errorf("bad directive %q (want key=value or drop)", f)
		}
		switch k {
		case "error":
			if _, ok := classErr(v); !ok {
				return r, fmt.Errorf("unknown error class %q (known: %s)", v, classList())
			}
			r.Err = v
		case "delay", "stall":
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return r, fmt.Errorf("bad duration %q", v)
			}
			r.Delay = d
		case "p":
			p, err := strconv.ParseFloat(v, 64)
			if err != nil || p <= 0 || p > 1 {
				return r, fmt.Errorf("bad probability %q (want 0 < p <= 1)", v)
			}
			if p == 1 {
				p = 0 // normalise: 0 and 1 both mean "always"
			}
			r.P = p
		case "after", "every", "times":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				return r, fmt.Errorf("bad count %q", v)
			}
			switch k {
			case "after":
				r.After = n
			case "every":
				if n == 1 {
					n = 0 // normalise: 0 and 1 both mean "every hit"
				}
				r.Every = n
			case "times":
				r.Times = n
			}
		default:
			return r, fmt.Errorf("unknown directive %q", k)
		}
	}
	if !r.Drop && r.Err == "" && r.Delay == 0 {
		return r, fmt.Errorf("rule injects nothing: add error=, delay= or drop")
	}
	if r.Drop && r.Err != "" {
		return r, fmt.Errorf("drop and error=%s conflict", r.Err)
	}
	return r, nil
}

func siteList() string {
	names := make([]string, len(Sites))
	for i, s := range Sites {
		names[i] = string(s)
	}
	return strings.Join(names, ", ")
}

func classList() string {
	names := make([]string, len(classes))
	for i, c := range classes {
		names[i] = c.name
	}
	return strings.Join(names, ", ")
}

// ruleState is a Rule plus its per-injector counters.
type ruleState struct {
	Rule
	hits  int64 // Fire calls that reached this rule
	fired int64 // times it actually injected
}

// Injector evaluates a Scenario at runtime. A nil *Injector is valid
// and injects nothing — hot paths call Fire unconditionally. All
// methods are safe for concurrent use; the seeded RNG is serialised
// under the mutex so a scenario's probabilistic decisions replay in
// hit order.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules map[Site][]*ruleState
	sleep func(time.Duration) // test seam; time.Sleep when nil
}

// New builds an Injector from a Scenario. A nil scenario yields a nil
// injector (inject nothing), so New(ParseOrNil(flag)) composes.
func New(sc *Scenario) *Injector {
	if sc == nil || len(sc.Rules) == 0 {
		return nil
	}
	in := &Injector{
		rng:   rand.New(rand.NewSource(sc.Seed)),
		rules: make(map[Site][]*ruleState),
	}
	for _, r := range sc.Rules {
		in.rules[r.Site] = append(in.rules[r.Site], &ruleState{Rule: r})
	}
	return in
}

// Must parses scenario text and builds an Injector, panicking on a
// decode error — for tests and canned scenarios only.
func Must(text string) *Injector {
	sc, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return New(sc)
}

// Fire evaluates site's rules: it sleeps any matched delay, then
// returns the first matched error (wrapped with the site name), or
// nil. Nil-receiver safe — this is the call threaded through hot
// paths.
func (in *Injector) Fire(site Site) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	var delay time.Duration
	var injected error
	for _, rs := range in.rules[site] {
		rs.hits++
		if rs.hits <= rs.After {
			continue
		}
		if rs.Times > 0 && rs.fired >= rs.Times {
			continue
		}
		if rs.Every > 1 && (rs.hits-rs.After-1)%rs.Every != 0 {
			continue
		}
		if rs.P > 0 && rs.P < 1 && in.rng.Float64() >= rs.P {
			continue
		}
		rs.fired++
		delay += rs.Delay
		if injected == nil {
			if e := rs.err(); e != nil {
				injected = fmt.Errorf("fault %s: %w", site, e)
			}
		}
	}
	sleep := in.sleep
	in.mu.Unlock()
	if delay > 0 {
		if sleep == nil {
			sleep = time.Sleep
		}
		sleep(delay)
	}
	return injected
}

// Count reports how many times site's rules have injected (fired, not
// merely been evaluated) — chaos reports surface these so a scenario
// that silently never triggered is visible.
func (in *Injector) Count(site Site) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var n int64
	for _, rs := range in.rules[site] {
		n += rs.fired
	}
	return n
}

// Counts returns every site's fired count, keyed by site name, for
// JSON reports. Sites with no rules are absent.
func (in *Injector) Counts() map[string]int64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int64, len(in.rules))
	for site, rules := range in.rules {
		var n int64
		for _, rs := range rules {
			n += rs.fired
		}
		out[string(site)] = n
	}
	return out
}

// Named returns the canned scenario text for one of the chaos-soak
// scenarios, or "" for an unknown name. These are the four scenarios
// the CI chaos matrix drives; Names lists them.
func Named(name string) string {
	switch name {
	case "disk-full":
		// The WAL's fsync starts failing ENOSPC after 20 commits: the
		// write path must degrade to 503s while reads keep serving.
		return "seed 11\nwal.fsync error=disk-full after=20\n"
	case "fsync-stall":
		// Checkpoint persistence stalls mid-write and the fsync then
		// fails once: the previous checkpoint generation must survive
		// and recovery fall back to it plus the WAL tail.
		return "seed 12\nckpt.write delay=150ms\nckpt.fsync error=io times=1\n"
	case "conn-flap":
		// Wire connections drop randomly mid-frame in both directions:
		// subscribers must resume from their cursors and the server
		// must reclaim every per-connection goroutine.
		return "seed 13\nwire.read drop p=0.05\nwire.write drop p=0.05\n"
	case "slow-compute":
		// The query path slows down: deadline-aware admission control
		// and client backoff absorb it without wrong answers.
		return "seed 14\nquery.compute delay=20ms p=0.5\n"
	}
	return ""
}

// Names lists the canned scenarios, sorted.
func Names() []string {
	names := []string{"conn-flap", "disk-full", "fsync-stall", "slow-compute"}
	sort.Strings(names)
	return names
}
