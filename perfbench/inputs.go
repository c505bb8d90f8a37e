package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"elmocomp/internal/model"
	"elmocomp/internal/reduce"
	"elmocomp/internal/synth"
)

// synthText renders one efmgen network (internal/synth, the generator
// behind cmd/efmgen) in the reaction-equation text format.
func synthText(layers, width, cross int, rev float64, coef int, seed int64) (string, error) {
	n, err := synth.Network(synth.Params{
		Layers: layers, Width: width, CrossLinks: cross,
		ReversibleFraction: rev, MaxCoef: coef, Seed: seed,
	})
	if err != nil {
		return "", err
	}
	return n.String(), nil
}

// yeastWithout renders the built-in yeast1 model (the paper's Network
// I) with the named reactions removed.
func yeastWithout(drop ...string) string {
	gone := make(map[string]bool, len(drop))
	for _, d := range drop {
		gone[d] = true
	}
	var out []string
	for _, ln := range strings.Split(model.YeastI().String(), "\n") {
		t := strings.TrimSpace(ln)
		if t == "" {
			continue
		}
		if !strings.HasPrefix(t, "name ") && !strings.HasPrefix(t, "external ") {
			if gone[strings.TrimSpace(strings.SplitN(t, ":", 2)[0])] {
				continue
			}
		}
		out = append(out, t)
	}
	return strings.Join(out, "\n") + "\n"
}

// The fixed networks of the benchmark. yeast1-m3 is the paper's
// Network I without R32r, R36r and R19r (18,870 EFMs); yeast1-sub
// additionally drops R17r, R18r, R20r and R7r (33 EFMs), the largest
// real network both exact backends finish in seconds.
var (
	yeastM3Drop  = []string{"R32r", "R36r", "R19r"}
	yeastSubDrop = []string{"R32r", "R36r", "R19r", "R17r", "R18r", "R20r", "R7r"}
)

// dnc partition of the paper's Table III.
var paperPartition = []string{"R89r", "R74r"}

// networkText generates the input text of a named network.
func networkText(name string) (string, error) {
	switch name {
	case "synth-3163":
		return synthText(7, 5, 18, 0.25, 2, 3)
	case "synth-medium":
		return synthText(6, 6, 14, 0.2, 2, 42)
	case "corner-1e6-s1":
		return synthText(4, 4, 8, 0.25, 1000000, 1)
	case "corner-1e6-s3":
		return synthText(4, 4, 8, 0.25, 1000000, 3)
	case "corner-1e8-s3":
		return synthText(4, 4, 8, 0.25, 100000000, 3)
	case "yeast1":
		return model.YeastI().String(), nil
	case "yeast1-m3":
		return yeastWithout(yeastM3Drop...), nil
	case "yeast1-sub":
		return yeastWithout(yeastSubDrop...), nil
	}
	if strings.HasPrefix(name, "svc-") {
		var seed int64
		if _, err := fmt.Sscanf(name, "svc-%d", &seed); err != nil {
			return "", fmt.Errorf("bad service network name %q", name)
		}
		return synthText(5, 5, 10, 0.25, 2, seed)
	}
	return "", fmt.Errorf("unknown network %q", name)
}

// objectiveReactions lists the irreversible original reactions of a
// network that survive reduction, so an objective over them is always
// accepted. Reversible reactions are left out: a negative weight on one
// makes its futile split two-cycle the optimum, the stream skips that
// vertex, and reaching the first real mode can take minutes.
func objectiveReactions(text string) ([]string, error) {
	net, err := model.ParseString(text)
	if err != nil {
		return nil, err
	}
	red, err := reduce.Network(net, reduce.Options{MergeDuplicates: true})
	if err != nil {
		return nil, err
	}
	var out []string
	for _, r := range net.Reactions {
		if !r.Reversible && red.ColumnIndexByOriginal(r.Name) >= 0 {
			out = append(out, r.Name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// drawObjective picks a ranking objective from rng: weight -1 on one
// reaction of pool, so the first ranked mode is the one routing the
// largest share of its flux through that reaction.
func drawObjective(rng *rand.Rand, pool []string) map[string]string {
	return map[string]string{pool[rng.Intn(len(pool))]: "-1"}
}
