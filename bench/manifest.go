package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
)

// runSeconds is how long the driver lets one run measure. With 158 runs of
// seven workloads in under an hour, twelve seconds is what leaves room for
// set-up, the checked pass and the reference engines around it.
const runSeconds = 12

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestEntry  `json:"workloads"`
	EndToEnd   []metricDef      `json:"end_to_end"`
	PerLayer   []perLayerMetric `json:"per_layer"`
}

type manifestEntry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type perLayerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads() {
		m.Workloads = append(m.Workloads, manifestEntry{w.name, w.why})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, perLayerMetric{d.Name, d.Unit, d.Better})
	}
	return m
}

func manifestJSON() ([]byte, error) {
	data, err := json.MarshalIndent(buildManifest(), "", "  ")
	return append(data, '\n'), err
}

// manifestMain prints BENCHMARK.json; the committed file is this output.
func manifestMain() error {
	data, err := manifestJSON()
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(data)
	return err
}

// expectedMain prints expected.json: the outcome of every workload at the
// seed and size the committed expectation covers.
func expectedMain(ctx context.Context) error {
	dir, err := os.MkdirTemp("", "vadabench-expected-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	all := map[string]outcome{}
	for _, w := range workloads() {
		p, err := prepare(w, expectedSeed, sizeDefault, dir)
		if err != nil {
			return err
		}
		answers, _, err := checkedPass(ctx, p, &tally{})
		if err != nil {
			return err
		}
		if err := w.verify(ctx, p, answers); err != nil {
			return fmt.Errorf("%s: reference check: %w", w.name, err)
		}
		all[w.name] = outcomeOf(p.outs, answers)
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(data, '\n'))
	return err
}
