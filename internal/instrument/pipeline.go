package instrument

import (
	"repro/internal/isa"
	"repro/internal/profile"
)

// RemapProfile translates a profile's PCs through an old-to-new index
// mapping produced by a rewrite, so a later instrumentation phase can
// consume a profile collected against the pre-rewrite binary.
//
// Branch-target PCs in edges and block-latency records are mapped to the
// new position of the original instruction. When insertions precede a
// block entry this is one group off from the new block start; the
// scavenger phase treats missing block-latency lookups as "fall back to
// static estimates", so the approximation is safe.
func RemapProfile(p *profile.Profile, oldToNew []int, newLen int) *profile.Profile {
	q := &profile.Profile{
		ProgramLen:       newLen,
		TotalStallCycles: p.TotalStallCycles,
		TotalSamples:     p.TotalSamples,
	}
	mapPC := func(pc int) (int, bool) {
		if pc < 0 || pc >= len(oldToNew) {
			return 0, false
		}
		return oldToNew[pc], true
	}
	for _, s := range p.Sites {
		if npc, ok := mapPC(s.PC); ok {
			s.PC = npc
			q.Sites = append(q.Sites, s)
		}
	}
	for _, e := range p.Edges {
		nf, ok1 := mapPC(e.From)
		nt, ok2 := mapPC(e.To)
		if ok1 && ok2 {
			q.Edges = append(q.Edges, profile.EdgeCount{From: nf, To: nt, Count: e.Count})
		}
	}
	for _, b := range p.Blocks {
		if npc, ok := mapPC(b.StartPC); ok {
			b.StartPC = npc
			q.Blocks = append(q.Blocks, b)
		}
	}
	return q
}

// PipelineOptions configures the full §3.2+§3.3 instrumentation pipeline.
type PipelineOptions struct {
	Primary Options
	// Scavenger enables the scavenger phase when non-nil.
	Scavenger *ScavengerOptions
}

// DefaultPipelineOptions enables both phases with reference settings.
func DefaultPipelineOptions() PipelineOptions {
	so := DefaultScavengerOptions()
	return PipelineOptions{Primary: DefaultOptions(), Scavenger: &so}
}

// PipelineResult aggregates both phases' reports.
type PipelineResult struct {
	Primary   *PrimaryResult   `json:"primary"`
	Scavenger *ScavengerResult `json:"scavenger,omitempty"`
	// OldToNew composes both rewrites: original index -> final index.
	OldToNew []int `json:"old_to_new"`
}

// InstrumentImage runs the full pipeline on an encoded binary: decode,
// primary instrumentation, profile remapping, scavenger instrumentation,
// re-encode. This is the entry point the tools and the public API use.
// It does not verify its output: internal/check does, on every image
// core.Harness.Instrument builds and before shinstr writes one.
func InstrumentImage(img *isa.Image, prof *profile.Profile, opts PipelineOptions) (*isa.Image, *PipelineResult, error) {
	prog, err := isa.Decode(img)
	if err != nil {
		return nil, nil, err
	}
	p1, pres, err := Primary(prog, prof, opts.Primary)
	if err != nil {
		return nil, nil, err
	}
	result := &PipelineResult{Primary: pres, OldToNew: pres.OldToNew}

	final := p1
	if opts.Scavenger != nil {
		remapped := RemapProfile(prof, pres.OldToNew, len(p1.Instrs))
		p2, sres, err := Scavenger(p1, remapped, *opts.Scavenger)
		if err != nil {
			return nil, nil, err
		}
		result.Scavenger = sres
		final = p2
		// Compose the mappings.
		composed := make([]int, len(pres.OldToNew))
		for i, mid := range pres.OldToNew {
			composed[i] = sres.OldToNew[mid]
		}
		result.OldToNew = composed
		for j := range result.Primary.Sites {
			s := &result.Primary.Sites[j]
			s.NewPC = sres.OldToNew[s.NewPC]
			s.YieldPC = sres.OldToNew[s.YieldPC]
		}
	}
	return isa.Encode(final), result, nil
}
