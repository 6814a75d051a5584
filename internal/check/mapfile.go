package check

import (
	"encoding/json"
	"fmt"
	"io"
)

// MapFile is the JSON interchange format tying an instrumented image
// back to its original: the rewrite mapping. (The rewritten entry
// points travel in the image's own symbols.) shinstr -report writes
// one; shcheck -map consumes it so verification runs on ground truth
// instead of InferMap's heuristic.
type MapFile struct {
	// OldToNew maps original instruction indices to their positions in
	// the rewritten program.
	OldToNew []int `json:"old_to_new"`
}

// Save writes the map file as indented JSON.
func (m *MapFile) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// LoadMapFile reads a map file written by Save (or by shinstr -report).
func LoadMapFile(r io.Reader) (*MapFile, error) {
	var m MapFile
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("check: parsing map file: %w", err)
	}
	if m.OldToNew == nil {
		return nil, fmt.Errorf("check: map file has no old_to_new mapping")
	}
	return &m, nil
}
