// Package fault is the deterministic fault-injection registry behind the
// resilience test matrix: named injection sites compiled into the
// engine's seams (source cursor reads, storage inserts, chase matching,
// pipeline chunk loads) that do nothing — one atomic
// load — until a plan arms them, and then fail at exact per-site hit
// counts, so every chaos run is reproducible.
//
// A site is declared once at package level:
//
//	var siteRead = fault.NewSite("source.read")
//
// and consulted on the guarded path with Site.Check (error seams) or
// Site.Hit (seams with no error path, which can only crash). Arming is
// global, via the test API (Enable/Disable) or the REPRO_FAULT
// environment variable at process start. A plan is a comma-separated
// list of terms:
//
//	site          fire at hit 1
//	site@N        fire at exactly the N-th hit (1-based) since arming
//	site@N+       fire at every hit from the N-th on (persistent fault)
//	site@N!       panic instead of returning an error
//
// e.g. REPRO_FAULT="source.read@2+,storage.insert@5!". Hit counters are
// reset by Enable and Disable, so counts are relative to the arming
// point — the "seed" of a chaos run is the plan itself. The special
// value REPRO_FAULT="seed:N" arms nothing; it hands the chaos suite a
// numeric seed (Seed) from which it derives per-site hit positions.
//
// Injected failures are typed (*Error); the source layer classifies
// them as transient I/O, which is what makes retry paths testable.
package fault

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Error is an injected failure: which site fired and at which hit. The
// source layer classifies it as transient I/O; engine recover paths
// carry it as the panic value.
type Error struct {
	Site string
	Hit  uint64
}

func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected failure at %s (hit %d)", e.Site, e.Hit)
}

// Site is one named injection point. Sites are created at package init
// (NewSite/NewPanicSite) and live for the process; their hit counters
// reset whenever the armed plan changes.
type Site struct {
	name      string
	panicOnly bool
	hits      atomic.Uint64
}

// Name returns the site's registry name.
func (s *Site) Name() string { return s.name }

// SiteInfo describes one registered site for matrix iteration.
type SiteInfo struct {
	Name string
	// PanicOnly marks a seam with no error path: any arming of the site
	// panics, whatever the plan term asked for.
	PanicOnly bool
}

type plan struct {
	hit    uint64
	every  bool
	panics bool
}

var (
	armed atomic.Bool

	mu    sync.Mutex
	sites = map[string]*Site{}
	plans = map[string]plan{}
)

func register(name string, panicOnly bool) *Site {
	mu.Lock()
	defer mu.Unlock()
	if _, dup := sites[name]; dup {
		panic(fmt.Sprintf("fault: site %q registered twice", name))
	}
	s := &Site{name: name, panicOnly: panicOnly}
	sites[name] = s
	return s
}

// NewSite registers an injection site whose guarded seam has an error
// path: Check returns the injected *Error (or panics under a "!" term).
func NewSite(name string) *Site { return register(name, false) }

// NewPanicSite registers an injection site whose guarded seam has no
// error path (storage mutation): any arming panics with *Error.
func NewPanicSite(name string) *Site { return register(name, true) }

// Sites lists every registered site, sorted by name — the chaos suite's
// iteration space.
func Sites() []SiteInfo {
	mu.Lock()
	defer mu.Unlock()
	out := make([]SiteInfo, 0, len(sites))
	for _, s := range sites {
		out = append(out, SiteInfo{Name: s.name, PanicOnly: s.panicOnly})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Check counts a hit against the site when injection is armed and
// returns the injected *Error when the plan fires at this hit (panicking
// instead under a "!" term or for panic-only sites). When injection is
// off it is a single atomic load and returns nil.
func (s *Site) Check() error {
	if !armed.Load() {
		return nil
	}
	return s.fire()
}

// Hit is Check for seams with no error path: when the plan fires it
// panics with *Error.
func (s *Site) Hit() {
	if !armed.Load() {
		return
	}
	if err := s.fire(); err != nil {
		panic(err)
	}
}

func (s *Site) fire() error {
	h := s.hits.Add(1)
	mu.Lock()
	p, ok := plans[s.name]
	mu.Unlock()
	if !ok || (h != p.hit && !(p.every && h > p.hit)) {
		return nil
	}
	e := &Error{Site: s.name, Hit: h}
	if s.panicOnly || p.panics {
		panic(e)
	}
	return e
}

// Hits returns how many times the named site has been consulted since
// the last Enable/Disable (test introspection; 0 for unknown sites).
func Hits(site string) uint64 {
	mu.Lock()
	s := sites[site]
	mu.Unlock()
	if s == nil {
		return 0
	}
	return s.hits.Load()
}

// Enabled reports whether a plan is armed.
func Enabled() bool { return armed.Load() }

// Enable parses spec (see the package comment for the grammar), resets
// every site's hit counter and arms the plan. Unknown site names are
// rejected so a typo cannot silently disarm a chaos run.
func Enable(spec string) error {
	parsed, err := parseSpec(spec)
	if err != nil {
		return err
	}
	mu.Lock()
	for name := range parsed {
		if _, ok := sites[name]; !ok {
			known := make([]string, 0, len(sites))
			for n := range sites {
				known = append(known, n)
			}
			sort.Strings(known)
			mu.Unlock()
			return fmt.Errorf("fault: unknown site %q (registered: %s)", name, strings.Join(known, ", "))
		}
	}
	plans = parsed
	for _, s := range sites {
		s.hits.Store(0)
	}
	mu.Unlock()
	armed.Store(true)
	return nil
}

// Disable disarms injection and resets every site's hit counter.
func Disable() {
	armed.Store(false)
	mu.Lock()
	plans = map[string]plan{}
	for _, s := range sites {
		s.hits.Store(0)
	}
	mu.Unlock()
}

func parseSpec(spec string) (map[string]plan, error) {
	out := map[string]plan{}
	for _, termSpec := range strings.Split(spec, ",") {
		termSpec = strings.TrimSpace(termSpec)
		if termSpec == "" {
			continue
		}
		p := plan{hit: 1}
		name := termSpec
		if i := strings.IndexByte(termSpec, '@'); i >= 0 {
			name = termSpec[:i]
			rest := termSpec[i+1:]
			for strings.HasSuffix(rest, "+") || strings.HasSuffix(rest, "!") {
				switch rest[len(rest)-1] {
				case '+':
					p.every = true
				case '!':
					p.panics = true
				}
				rest = rest[:len(rest)-1]
			}
			n, err := strconv.ParseUint(rest, 10, 64)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("fault: bad term %q (want site@N[+][!], N >= 1)", termSpec)
			}
			p.hit = n
		}
		if name == "" {
			return nil, fmt.Errorf("fault: bad term %q (empty site name)", termSpec)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("fault: site %q armed twice in one plan", name)
		}
		out[name] = p
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fault: empty plan %q", spec)
	}
	return out, nil
}

// Seed returns the numeric seed of a REPRO_FAULT="seed:N" value, used by
// the chaos suite to derive per-site hit positions; ok is false when the
// variable is unset or holds a concrete plan instead.
func Seed() (seed uint64, ok bool) {
	v := os.Getenv("REPRO_FAULT")
	rest, found := strings.CutPrefix(v, "seed:")
	if !found {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

func init() {
	// A concrete REPRO_FAULT plan arms the process from the start, so any
	// binary (cmd/vada included) can run under injection; seed: values are
	// left to the chaos suite. This init runs before the engine packages
	// register their sites (they import this package), so the plan can
	// only be parsed here, not name-checked: a grammar error is loud, but
	// a misspelled site name silently never fires. The test API (Enable)
	// validates names strictly.
	if spec := os.Getenv("REPRO_FAULT"); spec != "" && !strings.HasPrefix(spec, "seed:") {
		parsed, err := parseSpec(spec)
		if err != nil {
			panic(err)
		}
		mu.Lock()
		plans = parsed
		mu.Unlock()
		armed.Store(true)
	}
}
