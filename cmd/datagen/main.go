// Command datagen materializes the synthetic archive (or the CBF
// scalability workload) as UCR-format files, so the datasets behind the
// experiments can be inspected or fed to other tools.
//
// Usage:
//
//	datagen -dir out/                 # write all 48 archive datasets
//	datagen -dir out/ -name CBF       # one dataset
//	datagen -dir out/ -cbf-n 1000 -cbf-m 128  # CBF workload (single file)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"kshape/internal/cli"
	"kshape/internal/dataset"
	"kshape/internal/ts"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	dir := fs.String("dir", ".", "output directory")
	name := fs.String("name", "", "write only the named archive dataset")
	cbfN := fs.Int("cbf-n", 0, "if > 0, write a CBF workload with this many series instead of the archive")
	cbfM := fs.Int("cbf-m", 128, "CBF series length")
	seed := fs.Int64("seed", 1, "CBF seed")
	var common cli.Common
	common.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if common.HandleVersion(os.Stderr, "datagen") {
		return nil
	}
	logger, err := common.Logger("datagen", os.Stderr)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	if *cbfN > 0 {
		data := dataset.CBF(*cbfN, *cbfM, *seed)
		path := filepath.Join(*dir, fmt.Sprintf("CBF_n%d_m%d.tsv", *cbfN, *cbfM))
		if err := writeSeries(path, data); err != nil {
			return err
		}
		fmt.Println(path)
		logger.Debug("wrote CBF workload", "path", path, "n", *cbfN, "m", *cbfM, "seed", *seed)
		return nil
	}
	files := 0
	for _, spec := range dataset.ArchiveSpecs() {
		if *name != "" && spec.Name != *name {
			continue
		}
		ds := dataset.Generate(spec)
		trainPath := filepath.Join(*dir, spec.Name+"_TRAIN.tsv")
		testPath := filepath.Join(*dir, spec.Name+"_TEST.tsv")
		if err := writeSeries(trainPath, ds.Train); err != nil {
			return err
		}
		if err := writeSeries(testPath, ds.Test); err != nil {
			return err
		}
		fmt.Println(trainPath)
		fmt.Println(testPath)
		logger.Debug("wrote dataset", "dataset", spec.Name, "train", trainPath, "test", testPath)
		files += 2
	}
	logger.Debug("archive generation complete", "files", files, "dir", *dir)
	return nil
}

// writeSeries writes series as one UCR-format file, whole.
func writeSeries(path string, series []ts.Series) error {
	var sb strings.Builder
	for _, s := range series {
		fmt.Fprintf(&sb, "%d", s.Label)
		for _, v := range s.Values {
			fmt.Fprintf(&sb, ",%.6f", v)
		}
		sb.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(sb.String()), 0o666)
}
