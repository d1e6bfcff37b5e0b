package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"tracon/internal/model"
)

// Table is a rectangular result: a header plus rows.
type Table struct {
	Header []string
	Rows   [][]string
}

// Tabular is implemented by experiment results that can render themselves
// as a table.
type Tabular interface {
	Table() Table
}

// WriteCSV streams the table as CSV.
func WriteCSV(w io.Writer, t Table) error {
	cw := csv.NewWriter(w)
	if len(t.Header) > 0 {
		if err := cw.Write(t.Header); err != nil {
			return err
		}
	}
	for _, row := range t.Rows {
		if len(row) != len(t.Header) && len(t.Header) > 0 {
			return fmt.Errorf("experiments: row has %d fields, header has %d", len(row), len(t.Header))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveCSV writes the table to a CSV file, creating parent directories.
func SaveCSV(path string, t Table) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := WriteCSV(f, t); err != nil {
		return err
	}
	return f.Close()
}

// cellF formats a float for CSV cells.
func cellF(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// cellI formats an int for CSV cells.
func cellI(v int) string { return strconv.Itoa(v) }

// Table renderers: every experiment result can be exported as CSV (the
// traconbench -csv flag).

// Table implements Tabular.
func (r *Table1Result) Table() Table {
	t := Table{Header: append([]string{"app"}, r.Columns...)}
	for _, name := range []string{"calc", "seqread"} {
		row := []string{name}
		for _, v := range r.Rows[name] {
			row = append(row, cellF(v))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Table implements Tabular.
func (r *Fig3Result) Table() Table {
	t := Table{Header: []string{"response", "app", "model", "mean_err", "stddev"}}
	for _, resp := range []model.Response{model.Runtime, model.IOPS} {
		for _, app := range r.Apps {
			for _, k := range r.Kinds {
				c := r.Cells[resp][app][k]
				t.Rows = append(t.Rows, []string{
					resp.String(), app, k.String(), cellF(c.Mean), cellF(c.Stddev),
				})
			}
		}
	}
	return t
}

// Table implements Tabular.
func (r *Fig4Result) Table() Table {
	t := Table{Header: []string{"model", "speedup_mean", "speedup_std", "ioboost_mean", "ioboost_std"}}
	for _, k := range r.Kinds {
		sp, io := r.Speedup[k], r.IOBoost[k]
		t.Rows = append(t.Rows, []string{
			k.String(), cellF(sp.Mean), cellF(sp.Stddev), cellF(io.Mean), cellF(io.Stddev),
		})
	}
	return t
}

// Table implements Tabular.
func (r *Fig5Result) Table() Table {
	t := Table{Header: []string{"app", "predicted_min", "measured_min", "measured_avg", "measured_max"}}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.App, cellF(row.PredictedMin), cellF(row.MeasuredMin),
			cellF(row.MeasuredAvg), cellF(row.MeasuredMax),
		})
	}
	return t
}

// Table implements Tabular.
func (r *Fig6Result) Table() Table {
	t := Table{Header: []string{"app", "predicted_max", "measured_min", "measured_avg", "measured_max"}}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.App, cellF(row.PredictedMax), cellF(row.MeasuredMin),
			cellF(row.MeasuredAvg), cellF(row.MeasuredMax),
		})
	}
	return t
}

// Table implements Tabular.
func (r *Fig7Result) Table() Table {
	t := Table{Header: []string{"observation", "adapt_rt_err", "adapt_io_err", "control_rt_err", "control_io_err"}}
	for i, p := range r.Adapting {
		row := []string{cellI(p.Observation), cellF(p.RuntimeErr), cellF(p.IOPSErr), "", ""}
		if i < len(r.Control) {
			row[3] = cellF(r.Control[i].RuntimeErr)
			row[4] = cellF(r.Control[i].IOPSErr)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Table implements Tabular.
func (r *Fig8Result) Table() Table {
	t := Table{Header: []string{"machines", "mix", "speedup_rt", "speedup_io", "ioboost"}}
	for _, c := range r.Cells {
		t.Rows = append(t.Rows, []string{
			cellI(c.Machines), c.Mix.String(), cellF(c.SpeedupRT), cellF(c.SpeedupIO), cellF(c.IOBoost),
		})
	}
	return t
}

// Table implements Tabular.
func (r *DynamicResult) Table() Table {
	t := Table{Header: []string{"machines", "mix", "lambda_per_min", "scheduler", "completed", "normalized"}}
	for _, c := range r.Cells {
		t.Rows = append(t.Rows, []string{
			cellI(c.Machines), c.Mix.String(), cellF(c.Lambda), c.Scheduler,
			cellF(c.Completed), cellF(c.Normalized),
		})
	}
	return t
}

// Table implements Tabular.
func (r *StorageStudyResult) Table() Table {
	t := Table{Header: []string{"device", "seqread_vs_iohigh", "mibs_speedup", "energy_saving"}}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Device, cellF(row.SeqReadVsIOHigh), cellF(row.MIBSSpeedup), cellF(row.EnergySaving),
		})
	}
	return t
}

// Table implements Tabular.
func (r *SpotCheckResult) Table() Table {
	return Table{
		Header: []string{"machines", "lambda_per_min", "groups", "horizon_hours", "fifo_completed", "mibs8_completed", "normalized"},
		Rows: [][]string{{
			cellI(r.Machines), cellF(r.Lambda), cellI(r.Groups), cellF(r.HorizonHours),
			cellF(r.FIFO), cellF(r.MIBS8), cellF(r.Normalized),
		}},
	}
}
