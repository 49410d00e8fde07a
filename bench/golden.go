package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// The golden files map each input label of a workload to the SHA-256 of its
// layout text (layout.Format). Every run checks its layouts against them;
// -update-golden rewrites them, and is the only way to accept a change to a
// layout.

func digest(layoutText string) string {
	sum := sha256.Sum256([]byte(layoutText))
	return hex.EncodeToString(sum[:])
}

func readGolden(path string) (map[string]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("golden digests: %w (run with -update-golden to create them)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		return nil, fmt.Errorf("golden digests %s: %w", path, err)
	}
	return want, nil
}

func writeGolden(path string, outs map[string]output) error {
	digests := make(map[string]string, len(outs))
	for label, o := range outs {
		digests[label] = digest(o.layout)
	}
	b, err := json.MarshalIndent(digests, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// diffGolden lists every output that has no golden digest or a different
// one, and every golden label the run produced no layout for.
func diffGolden(want map[string]string, outs map[string]output) []string {
	var problems []string
	for label := range want {
		if _, ok := outs[label]; !ok {
			problems = append(problems, fmt.Sprintf("%s: no layout produced", label))
		}
	}
	sort.Strings(problems)
	for _, label := range sortedLabels(outs) {
		w, ok := want[label]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("%s: no golden digest", label))
		case w != digest(outs[label].layout):
			problems = append(problems, fmt.Sprintf("%s: layout differs from its golden digest", label))
		}
	}
	return problems
}
