package dataset

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"kshape/internal/ts"
)

// LoadUCRFile reads one split of a UCR-format dataset: one series per line,
// the class label in the first field, values in the remaining fields,
// separated by commas, tabs, or spaces. Non-integer labels are rejected.
// All series must share one length. Values are returned as-is; the
// clustering and 1-NN entry points z-normalize them.
func LoadUCRFile(path string) ([]ts.Series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	series, err := ParseUCR(f)
	if err != nil {
		return nil, fmt.Errorf("dataset: %s: %w", path, err)
	}
	return series, nil
}

// ParseUCR parses UCR-format content from r (see LoadUCRFile).
func ParseUCR(r io.Reader) ([]ts.Series, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	var out []ts.Series
	length := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := splitUCRLine(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("line %d: need a label and at least one value", lineNo)
		}
		label, err := parseLabel(fields[0])
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		values := make([]float64, len(fields)-1)
		for i, fstr := range fields[1:] {
			v, err := strconv.ParseFloat(fstr, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad value %q: %w", lineNo, fstr, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("line %d: non-finite value %q", lineNo, fstr)
			}
			values[i] = v
		}
		if length == -1 {
			length = len(values)
		} else if len(values) != length {
			return nil, fmt.Errorf("line %d: length %d, want %d", lineNo, len(values), length)
		}
		out = append(out, ts.NewLabeled(values, label))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no series found")
	}
	return out, nil
}

// LoadUCRDataset loads a train/test pair into a Dataset, inferring K from
// the distinct labels across both splits.
func LoadUCRDataset(name, trainPath, testPath string) (Dataset, error) {
	train, err := LoadUCRFile(trainPath)
	if err != nil {
		return Dataset{}, err
	}
	test, err := LoadUCRFile(testPath)
	if err != nil {
		return Dataset{}, err
	}
	if train[0].Len() != test[0].Len() {
		return Dataset{}, fmt.Errorf("dataset: train length %d != test length %d", train[0].Len(), test[0].Len())
	}
	labels := map[int]bool{}
	for _, s := range train {
		labels[s.Label] = true
	}
	for _, s := range test {
		labels[s.Label] = true
	}
	return Dataset{
		Name:  name,
		K:     len(labels),
		M:     train[0].Len(),
		Train: train,
		Test:  test,
	}, nil
}

func splitUCRLine(line string) []string {
	if strings.ContainsRune(line, ',') {
		parts := strings.Split(line, ",")
		out := parts[:0]
		for _, p := range parts {
			if p = strings.TrimSpace(p); p != "" {
				out = append(out, p)
			}
		}
		return out
	}
	return strings.Fields(line)
}

func parseLabel(s string) (int, error) {
	// UCR labels are integers, but some files store them as floats ("1.0").
	if v, err := strconv.Atoi(s); err == nil {
		return v, nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad label %q", s)
	}
	v := int(f)
	//lint:ignore floatcmp exact integer-valuedness test of a parsed class label
	if float64(v) != f {
		return 0, fmt.Errorf("non-integer label %q", s)
	}
	return v, nil
}
