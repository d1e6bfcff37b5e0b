package experiments

import (
	"fmt"
	"math"
	"strings"

	"tracon/internal/model"
	"tracon/internal/sched"
	"tracon/internal/sim"
	"tracon/internal/workload"
	"tracon/internal/xen"
)

// StorageRow characterizes one device class: how violent I/O interference
// is on it, and how much an interference-aware scheduler can therefore
// recover — the study the paper sketches as future work ("we will explore
// I/O interference effects on various storage devices, e.g., RAID and
// solid-state drives (SSD), as well as network storage systems").
type StorageRow struct {
	Device string
	// SeqReadVsIOHigh is the Table 1 probe on this device: the slowdown of
	// a sequential reader beside an unthrottled I/O hog.
	SeqReadVsIOHigh float64
	// MIBSSpeedup is the static-workload MIBS_RT speedup over FIFO on this
	// device (oracle predictions, to isolate the device effect from model
	// quality).
	MIBSSpeedup float64
	// EnergySaving is 1 − MIBS energy-per-task / FIFO energy-per-task.
	EnergySaving float64
}

// StorageStudyResult compares devices.
type StorageStudyResult struct{ Rows []StorageRow }

// StorageStudy runs the device comparison: HDD (the paper's testbed),
// RAID0 arrays, the iSCSI volume and an SSD.
func StorageStudy(e *Env) (*StorageStudyResult, error) {
	devices := []xen.DiskParams{
		xen.HDD(),
		xen.RAID0(4),
		xen.RAID10(4),
		xen.ISCSI(),
		xen.SSD(),
	}
	res := &StorageStudyResult{}
	for _, dev := range devices {
		row, err := storageRow(e, dev)
		if err != nil {
			return nil, fmt.Errorf("storage study %s: %w", dev.Name, err)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func storageRow(e *Env, dev xen.DiskParams) (StorageRow, error) {
	cfg := xen.DefaultHost()
	cfg.Disk = dev
	host, err := xen.NewHost(cfg)
	if err != nil {
		return StorageRow{}, err
	}
	tb := xen.NewTestbed(host, 3, 0.05, e.Seed+int64(len(dev.Name)))

	// Probe: Table 1's data-intensive row on this device.
	sd, err := tb.Slowdown(workload.SeqRead(), workload.BGIOHigh.Spec())
	if err != nil {
		return StorageRow{}, err
	}

	// Scheduling: static medium-mix batches with oracle predictions.
	var specs []xen.AppSpec
	for _, b := range e.Benchmarks {
		specs = append(specs, b.Spec)
	}
	table, err := sim.BuildInterferenceTable(host, specs)
	if err != nil {
		return StorageRow{}, err
	}
	// The device's simulations run with the Env's hooks over its own table.
	de := *e
	de.Table = table
	scorer := sched.NewScorer(model.NewOracle(tb, specs), sched.MinRuntime)

	var fifoRT, mibsRT, fifoE, mibsE float64
	for seed := int64(1); seed <= 4; seed++ {
		tasks := batchTasks(workload.NewMixer(e.Seed+seed*211).Batch(workload.MediumIO, 32))
		// The device name keys the observability label: the task stream
		// and cluster size repeat across devices, only the table differs.
		kind := "storage-" + dev.Name
		fifo, err := de.simulate(kind, sched.FIFO{}, 16, tasks, math.Inf(1))
		if err != nil {
			return StorageRow{}, err
		}
		mibs, err := de.simulate(kind, &sched.MIBS{Scorer: scorer, QueueLen: len(tasks)}, 16, tasks, math.Inf(1))
		if err != nil {
			return StorageRow{}, err
		}
		fifoRT += fifo.TotalRuntime
		mibsRT += mibs.TotalRuntime
		fifoE += fifo.EnergyPerTaskKJ()
		mibsE += mibs.EnergyPerTaskKJ()
	}
	row := StorageRow{
		Device:          dev.Name,
		SeqReadVsIOHigh: sd,
		MIBSSpeedup:     fifoRT / mibsRT,
	}
	if fifoE > 0 {
		row.EnergySaving = 1 - mibsE/fifoE
	}
	return row, nil
}

// String renders the study.
func (r *StorageStudyResult) String() string {
	var b strings.Builder
	b.WriteString("Storage study (paper future work): interference and scheduler value per device\n")
	fmt.Fprintf(&b, "%-10s %20s %14s %16s\n", "device", "seqread-vs-iohog ×", "MIBS speedup", "energy saving %")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %20.2f %14.3f %16.1f\n",
			row.Device, row.SeqReadVsIOHigh, row.MIBSSpeedup, row.EnergySaving*100)
	}
	return b.String()
}
