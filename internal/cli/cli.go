// Package cli holds the small helpers shared by the command-line tools:
// resolving a dag from a workload name or a DAGMan file, and parsing
// numeric list flags.
package cli

import (
	"fmt"
	"math"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/dag"
	"repro/internal/dagman"
	"repro/internal/workloads"
)

// LoadDag resolves spec to a dag. A known workload name (airsn,
// inspiral, montage, sdss) builds the synthetic paper dag, scaled down
// by scale (1 = paper size); a classic repertoire name (mesh,
// reduction, expansion, butterfly, pyramid) builds the corresponding
// theory dag; anything else is treated as a DAGMan input file path,
// whose SPLICE statements are flattened with the spliced files
// resolved relative to its directory. The second result is a short
// label for reports.
func LoadDag(spec string, scale int) (*dag.Frozen, string, error) {
	for _, name := range workloads.Names() {
		if spec == name {
			g, err := workloads.ByName(name, scale)
			if err != nil {
				return nil, "", err
			}
			label := name
			if scale > 1 {
				label = fmt.Sprintf("%s/%d", name, scale)
			}
			return g, label, nil
		}
	}
	for _, name := range workloads.ClassicNames() {
		if spec == name {
			g, err := workloads.ClassicByName(name)
			if err != nil {
				return nil, "", err
			}
			return g, name, nil
		}
	}
	f, err := dagman.ParseFile(spec)
	if err != nil {
		return nil, "", fmt.Errorf("%q is not a workload name and could not be read as a DAGMan file: %w", spec, err)
	}
	f, err = f.Flatten(dagman.LoadSplice(filepath.Dir(spec)))
	if err != nil {
		return nil, "", err
	}
	g, err := f.Graph()
	if err != nil {
		return nil, "", err
	}
	return g, spec, nil
}

// ParseFloats parses a comma-separated list of numbers. Entries of the
// form a^b are evaluated as powers (e.g. "2^13", "10^-3").
func ParseFloats(csv string) ([]float64, error) {
	var out []float64
	for _, tok := range strings.Split(csv, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if base, exp, ok := strings.Cut(tok, "^"); ok {
			b, err1 := strconv.ParseFloat(base, 64)
			e, err2 := strconv.ParseFloat(exp, 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("bad power %q", tok)
			}
			out = append(out, pow(b, e))
			continue
		}
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", tok)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func pow(b, e float64) float64 { return math.Pow(b, e) }
