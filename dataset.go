package sdtw

import (
	"io"

	"sdtw/internal/datasets"
)

// Dataset is a labeled collection of equal-length series, re-exported from
// the internal generators so examples and downstream users can reproduce
// the paper's workloads through the public API.
type Dataset = datasets.Dataset

// DatasetConfig scales and seeds the synthetic workload generators.
type DatasetConfig = datasets.Config

// GunDataset synthesises the 2-class gun/point workload of the paper's
// Table 1 (length 150, 50 series). See internal/datasets for the
// substitution rationale: the UCR originals are not redistributable, so
// structurally matched synthetic series stand in.
func GunDataset(cfg DatasetConfig) *Dataset { return datasets.Gun(cfg) }

// TraceDataset synthesises the 4-class transient workload (length 275,
// 100 series).
func TraceDataset(cfg DatasetConfig) *Dataset { return datasets.Trace(cfg) }

// DatasetByName generates a paper workload by name ("Gun", "Trace" or
// "50Words").
func DatasetByName(name string, cfg DatasetConfig) (*Dataset, error) {
	return datasets.ByName(name, cfg)
}

// WriteUCR writes a data set in the UCR text format (label first, then
// values, comma-separated, one series per line).
func WriteUCR(w io.Writer, d *Dataset) error { return datasets.WriteUCR(w, d) }

// ReadUCR parses a data set in the UCR text format.
func ReadUCR(r io.Reader, name string) (*Dataset, error) { return datasets.ReadUCR(r, name) }
