package obs

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Exposition is a parsed text exposition: the value of each plain
// (counter or gauge) family, summed across its series. It is a value
// snapshot — reading it never touches live metrics. Clients such as the
// load harness difference two scrapes of a server's /metrics with it.
type Exposition struct {
	values map[string]float64
}

// ParseExposition parses a text exposition produced by WritePrometheus
// (or any single-label-depth Prometheus text). Unparseable sample lines,
// including a histogram bucket without a numeric le label, are an error:
// a reader must not silently drop data.
func ParseExposition(text string) (*Exposition, error) {
	exp := &Exposition{values: map[string]float64{}}
	types := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if name, typ, ok := parseTypeLine(line); ok {
				types[name] = typ
			}
			continue // HELP and unknown comments
		}
		name, labels, value, err := parseSampleLine(line)
		if err != nil {
			return nil, err
		}
		// A histogram's _bucket, _sum and _count series are not plain
		// values; only its bucket labels are checked.
		switch histogramSuffix(name, types) {
		case "":
			exp.values[name] += value
		case "_bucket":
			if err := checkLe(labels); err != nil {
				return nil, fmt.Errorf("obs: %q: %w", line, err)
			}
		}
	}
	return exp, nil
}

// parseTypeLine parses "# TYPE name type".
func parseTypeLine(line string) (name, typ string, ok bool) {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || fields[0] != "#" || fields[1] != "TYPE" {
		return "", "", false
	}
	if len(fields) == 4 {
		typ = fields[3]
	}
	return fields[2], typ, true
}

// parseSampleLine splits "name{labels} value [# exemplar]" into its
// parts. The exemplar suffix, when present, is discarded.
func parseSampleLine(line string) (name, labels string, value float64, err error) {
	if i := strings.Index(line, " # "); i >= 0 {
		line = strings.TrimSpace(line[:i])
	}
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return "", "", 0, fmt.Errorf("obs: malformed sample line %q", line)
	}
	series, valText := line[:sp], line[sp+1:]
	value, err = parseSampleValue(valText)
	if err != nil {
		return "", "", 0, fmt.Errorf("obs: bad value in %q: %w", line, err)
	}
	if i := strings.IndexByte(series, '{'); i >= 0 {
		if !strings.HasSuffix(series, "}") {
			return "", "", 0, fmt.Errorf("obs: malformed labels in %q", line)
		}
		return series[:i], series[i+1 : len(series)-1], value, nil
	}
	return series, "", value, nil
}

func parseSampleValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// histogramSuffix returns "_bucket", "_sum" or "_count" when name is that
// series of a family TYPEd as a histogram, and "" otherwise.
func histogramSuffix(name string, types map[string]string) string {
	for _, sfx := range []string{"_bucket", "_sum", "_count"} {
		b := strings.TrimSuffix(name, sfx)
		if b != name && types[b] == "histogram" {
			return sfx
		}
	}
	return ""
}

// checkLe requires a bucket sample's label text to carry an le label
// with a numeric value.
func checkLe(labels string) error {
	found := false
	for _, p := range strings.Split(labels, ",") {
		if v, ok := strings.CutPrefix(p, `le="`); ok {
			found = true
			if _, err := parseSampleValue(strings.TrimSuffix(v, `"`)); err != nil {
				return fmt.Errorf("bad le: %w", err)
			}
		}
	}
	if !found {
		return fmt.Errorf("bucket sample without le label")
	}
	return nil
}

// Value returns the summed value of a plain (counter/gauge) family
// across all of its series, or 0 when the family is absent.
func (e *Exposition) Value(name string) float64 { return e.values[name] }
