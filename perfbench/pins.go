package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// defaultSeed keeps the published inputs: every benchmark's own test
// input, whose outputs are pinned in digests.json.
const defaultSeed = 0

// pinnedDigests holds, for the default seed, the sha256 of every report
// the suite workload renders. Regenerate with --pin (README.md).
//
//go:embed digests.json
var pinnedDigests []byte

// pinSet is the digests.json document.
type pinSet struct {
	Seed  uint64 `json:"seed"`
	Suite pinned `json:"suite"`
}

// pinned is one workload's digests and the scale they were taken at.
type pinned struct {
	Base    int               `json:"base"`
	Digests map[string]string `json:"digests"`
}

func loadPins() (*pinSet, error) {
	var p pinSet
	if err := json.Unmarshal(pinnedDigests, &p); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return &p, nil
}

// check compares one operation's digest with the pinned one; it
// returns an error naming the mismatch.
func (p pinned) check(base int, key, got string) error {
	if p.Base != base {
		return fmt.Errorf("digests.json pins base %d, workload runs %d", p.Base, base)
	}
	want, ok := p.Digests[key]
	if !ok {
		return fmt.Errorf("%s: no pinned digest", key)
	}
	if want != got {
		return fmt.Errorf("%s: digest %.12s, pinned %.12s", key, got, want)
	}
	return nil
}

// writePins replaces the suite digests in perfbench/digests.json.
func writePins(p *pinSet, outputs map[string]string) error {
	p.Seed = defaultSeed
	p.Suite = pinned{Base: suiteBase, Digests: outputs}
	data, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join("perfbench", "digests.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("pinned %d suite digests in %s\n", len(outputs), path)
	return nil
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
