package vadalog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
)

// The chaos suite drives the transitive closure of a 200-edge graph
// (4 chains of 50 edges) through every registered fault site, on both
// engines, and asserts
// the resilience contract: an injected failure either heals in place
// (transparent source retry) or surfaces as a typed, resumable error,
// and after disarming the fault a resumed session converges to a final
// database canonically identical to an unfaulted run's.
//
// A site no configuration consults is skipped, not failed: storage.merge
// stays registered (storage/shard.go) but no engine reaches it any more, so
// it has no cells in the matrix.
//
// Runs are deterministic: hit positions derive from the per-site hit
// counts of a counting run plus a seed (REPRO_FAULT="seed:N", default
// 1), so a failing configuration reproduces exactly.

const chaosChains, chaosChainLen = 4, 50

// chaosProgram writes the edge CSV under dir and returns the @bind'ed
// transitive-closure program over it.
func chaosProgram(t *testing.T, dir string) string {
	t.Helper()
	var rows []string
	for c := 0; c < chaosChains; c++ {
		for i := 0; i < chaosChainLen; i++ {
			rows = append(rows, fmt.Sprintf("n%d_%d,n%d_%d", c, i, c, i+1))
		}
	}
	path := filepath.Join(dir, "edges.csv")
	if err := os.WriteFile(path, []byte(strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
		t.Fatalf("write edges: %v", err)
	}
	return fmt.Sprintf(`
		@bind("edge","csv",%q).
		edge(X,Y) -> tc(X,Y).
		edge(X,Y), tc(Y,Z) -> tc(X,Z).
		@output("tc").
	`, path)
}

// chaosDigest canonicalizes an output: sorted fact renderings, so the
// comparison is insensitive to admission order (a requeued batch may
// legitimately reorder rows).
func chaosDigest(facts []Fact) string {
	strs := make([]string, len(facts))
	for i, f := range facts {
		strs[i] = f.String()
	}
	sort.Strings(strs)
	return strings.Join(strs, "\n")
}

func chaosWant() int { return chaosChains * chaosChainLen * (chaosChainLen + 1) / 2 }

// chaosMix derives a deterministic per-configuration value from the
// suite seed (splitmix64-style), used to pick the hit a fault strikes
// at.
func chaosMix(seed uint64, parts ...string) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= 0xbf58476d1ce4e5b9
			h ^= h >> 27
		}
	}
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// chaosMode is one way of arming a site in the matrix.
type chaosMode struct {
	name string
	// term renders the plan term for a hit position.
	term func(site string, hit uint64) string
	// transparent: the run must succeed as if no fault fired (the retry
	// layer absorbs it). Otherwise the run must fail with a typed error.
	transparent bool
	// wantPanic: the surfaced error must be a *PanicError; wantTransient:
	// it must satisfy IsTransient.
	wantPanic     bool
	wantTransient bool
}

// chaosModes returns the applicable arming modes for a site. Source
// sites are error seams behind the retry layer: a one-shot fault heals
// transparently, a persistent one exhausts the retries and surfaces
// transient. Engine seams surface one-shot faults as positioned errors
// and panics as PanicError. Panic-only sites (storage mutation) always
// crash and must come back as PanicError.
func chaosModes(si fault.SiteInfo) []chaosMode {
	one := func(site string, hit uint64) string { return fmt.Sprintf("%s@%d", site, hit) }
	if si.PanicOnly {
		return []chaosMode{{name: "panic", term: one, wantPanic: true}}
	}
	if strings.HasPrefix(si.Name, "source.") {
		return []chaosMode{
			{name: "oneshot", term: one, transparent: true},
			{name: "persistent", term: func(site string, hit uint64) string {
				return fmt.Sprintf("%s@%d+", site, hit)
			}, wantTransient: true},
		}
	}
	return []chaosMode{
		{name: "oneshot", term: one},
		{name: "panic", term: func(site string, hit uint64) string {
			return fmt.Sprintf("%s@%d!", site, hit)
		}, wantPanic: true},
	}
}

// TestChaosMatrix is the injection matrix: every registered site (that
// the configuration actually exercises) x arming modes x both engines (w1:
// the chase matches on one goroutine).
func TestChaosMatrix(t *testing.T) {
	seed := uint64(1)
	if s, ok := fault.Seed(); ok {
		seed = s
	}
	src := chaosProgram(t, t.TempDir())
	sites := fault.Sites()
	if len(sites) == 0 {
		t.Fatal("no fault sites registered")
	}

	configs := []struct {
		name string
		opts Options
	}{
		{"pipeline", Options{Engine: EnginePipeline}},
		{"chase_w1", Options{Engine: EngineChase}},
	}
	for _, cfg := range configs {
		cfg := cfg
		// Fast retries keep the persistent-fault runs quick without
		// changing the policy's shape.
		cfg.opts.Retry = &RetryPolicy{MaxAttempts: 3, BaseDelay: 1, MaxDelay: 1}
		t.Run(cfg.name, func(t *testing.T) {
			r := MustCompile(MustParse(src), &cfg.opts)

			// Baseline: the unfaulted answer this configuration must
			// reproduce under every injection.
			fault.Disable()
			base := r.NewSession()
			if err := base.Run(); err != nil {
				t.Fatalf("baseline run: %v", err)
			}
			baseline := chaosDigest(base.Output("tc"))
			if got := len(base.Output("tc")); got != chaosWant() {
				t.Fatalf("baseline: %d tc facts, want %d", got, chaosWant())
			}

			// Counting run: arm a term that can never fire and record how
			// often each site is consulted, bounding the hit positions the
			// seed can pick.
			if err := fault.Enable(sites[0].Name + "@18446744073709551615"); err != nil {
				t.Fatalf("arm counting plan: %v", err)
			}
			count := r.NewSession()
			if err := count.Run(); err != nil {
				fault.Disable()
				t.Fatalf("counting run: %v", err)
			}
			hits := make(map[string]uint64, len(sites))
			for _, si := range sites {
				hits[si.Name] = fault.Hits(si.Name)
			}
			fault.Disable()

			for _, si := range sites {
				if hits[si.Name] == 0 {
					continue // site not exercised by this engine
				}
				for _, mode := range chaosModes(si) {
					name := strings.ReplaceAll(si.Name, ".", "_") + "/" + mode.name
					t.Run(name, func(t *testing.T) {
						hit := 1 + chaosMix(seed, cfg.name, si.Name, mode.name)%hits[si.Name]
						chaosOne(t, r, mode, si.Name, hit, baseline)
					})
				}
			}
		})
	}
}

// chaosOne runs one cell of the matrix: arm, run, check the failure
// contract, disarm, resume to convergence, compare digests.
func chaosOne(t *testing.T, r *Reasoner, mode chaosMode, site string, hit uint64, baseline string) {
	t.Helper()
	term := mode.term(site, hit)
	if err := fault.Enable(term); err != nil {
		t.Fatalf("arm %q: %v", term, err)
	}
	defer fault.Disable()

	s := r.NewSession()
	defer s.Close()
	err := s.Run()

	if mode.transparent {
		if err != nil {
			t.Fatalf("%s: one-shot source fault was not absorbed by the retry layer: %v", term, err)
		}
	} else {
		if err == nil {
			t.Fatalf("%s: armed fault did not surface", term)
		}
		var fe *fault.Error
		if !errors.As(err, &fe) {
			t.Fatalf("%s: error does not unwrap to the injected fault: %v", term, err)
		}
		if fe.Site != site {
			t.Fatalf("%s: fault attributed to site %q: %v", term, fe.Site, err)
		}
		if mode.wantPanic {
			var pe *core.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("%s: crash did not surface as *PanicError: %v", term, err)
			}
		}
		if mode.wantTransient && !IsTransient(err) {
			t.Fatalf("%s: exhausted retries did not stay transient: %v", term, err)
		}
		// Disarm and resume: the session must pick up exactly where the
		// fault struck and converge.
		fault.Disable()
		for i := 0; err != nil; i++ {
			if i == 5 {
				t.Fatalf("%s: session did not converge after 5 resumes: %v", term, err)
			}
			err = s.Run()
		}
	}
	if got := chaosDigest(s.Output("tc")); got != baseline {
		t.Errorf("%s: final database differs from the unfaulted baseline (%d vs %d facts)",
			term, len(s.Output("tc")), strings.Count(baseline, "\n")+1)
	}
	if !s.Quiesced() {
		t.Errorf("%s: converged session does not report quiescence", term)
	}
}
