// Dataflow wiring: the whole-repo analysis (internal/cdl/analysis/dataflow)
// feeds three pipeline surfaces. Stage 1 computes the change's blast radius
// and rejects non-deterministic overlay stacks; stage 2 posts the radius and
// combined risk score onto the review diff; the landing-strip gate re-runs
// both checks on diffs that bypass the pipeline, and additionally refuses
// high-radius direct submits — a change that can flip many artifacts must
// come through the pipeline so the canary covers its radius.
package core

import (
	"fmt"
	"sort"

	"configerator/internal/cdl/analysis"
	"configerator/internal/cdl/analysis/dataflow"
	"configerator/internal/vcs"
)

// DefaultHighRadiusArtifacts is the artifact-count threshold above which a
// change may not land via a direct strip submit (Options.HighRadiusArtifacts
// overrides; negative disables).
const DefaultHighRadiusArtifacts = 25

// configRoots enumerates every top-level artifact source visible through a
// change's overlay view: the repositories plus overlay additions, minus
// deletions — sorted and deduplicated, with one sort over the union.
func (p *Pipeline) configRoots(overlay map[string][]byte, deleted map[string]bool) []string {
	seen := make(map[string]bool)
	var roots []string
	add := func(path string) {
		if isTopLevel(path) && !deleted[path] && !seen[path] {
			seen[path] = true
			roots = append(roots, path)
		}
	}
	for _, repo := range p.Repos.Repos() {
		for path := range repo.HeadTree() {
			add(path)
		}
	}
	for path := range overlay {
		add(path)
	}
	sort.Strings(roots)
	return roots
}

// blastRadius analyzes the whole repo through the change's overlay view and
// answers the radius query for the changed paths, with canary domains
// attached.
func (p *Pipeline) blastRadius(fs *overlayFS, changed []string) (*dataflow.Repo, *dataflow.Radius) {
	rep := p.Dataflow.Analyze(fs, p.configRoots(fs.overlay, fs.deleted))
	rad := rep.Radius(changed)
	rad.Domains = p.canaryDomains(rad.Artifacts)
	rad.Rescore()
	return rep, rad
}

// canaryDomains maps affected artifacts onto the registered canary-spec
// prefixes ("default" for artifacts no spec covers) — the groups a canary
// rollout must exercise to cover the radius.
func (p *Pipeline) canaryDomains(artifacts []string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, root := range artifacts {
		domain := "default"
		if prefix, ok := p.canaryPrefixFor(ArtifactPath(root)); ok {
			domain = prefix
		}
		if !seen[domain] {
			seen[domain] = true
			out = append(out, domain)
		}
	}
	sort.Strings(out)
	return out
}

// highRadius reports whether the radius exceeds the direct-submit threshold.
func (p *Pipeline) highRadius(rad *dataflow.Radius) bool {
	return rad != nil && p.highRadiusAt > 0 && len(rad.Artifacts) >= p.highRadiusAt
}

// dataflowGate is the strip-gate half of the analysis: determinacy over the
// diff's affected artifacts (always), and the high-radius refusal for diffs
// the pipeline has not canaried (pointer identity marks pipeline shards in
// p.cleared around strip.Submit).
func (p *Pipeline) dataflowGate(d *vcs.Diff) error {
	overlay := make(map[string][]byte)
	deleted := make(map[string]bool)
	var changed []string
	for _, ch := range d.Changes {
		if !isSource(ch.Path) {
			continue
		}
		changed = append(changed, ch.Path)
		if ch.Delete {
			deleted[ch.Path] = true
		} else {
			overlay[ch.Path] = ch.Content
		}
	}
	if len(changed) == 0 {
		return nil
	}
	fs := &overlayFS{repos: p.Repos, overlay: overlay, deleted: deleted}
	rep, rad := p.blastRadius(fs, changed)
	if errs := analysis.Filter(rep.DeterminacyFor(rad.Artifacts), analysis.Error); len(errs) > 0 {
		return fmt.Errorf("%w at the landing strip: %s", ErrNondeterministic, errs[0].Message)
	}
	if !p.cleared[d] && p.highRadius(rad) {
		return fmt.Errorf("%w: change reaches %d artifacts (threshold %d); land it through the pipeline so the canary covers the radius",
			ErrHighRadius, len(rad.Artifacts), p.highRadiusAt)
	}
	return nil
}

// gate chains the lint gate and the dataflow gate into the landing strip's
// pre-land hook.
func (p *Pipeline) gate() func(*vcs.Diff) error {
	lint := p.lintGate()
	return func(d *vcs.Diff) error {
		if err := lint(d); err != nil {
			return err
		}
		return p.dataflowGate(d)
	}
}
