package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
)

// WriteJSON serializes a workload (including latent ground truth, so that a
// written trace reproduces experiments exactly).
func (w *Workload) WriteJSON(out io.Writer) error {
	enc := json.NewEncoder(out)
	return enc.Encode(w)
}

// WriteCSV writes a profile as "seq,name,time_us" rows, the same shape an
// Nsight Systems kernel-summary export has.
func (p *Profile) WriteCSV(w *Workload, out io.Writer) error {
	if err := p.Validate(w); err != nil {
		return err
	}
	bw := bufio.NewWriter(out)
	if _, err := bw.WriteString(ProfileHeader); err != nil {
		return err
	}
	var enc RowEncoder
	for i := range w.Invs {
		row := enc.AppendRow(bw.AvailableBuffer(), w.Invs[i].Seq, w.Invs[i].Name, p.TimeUS[i])
		if _, err := bw.Write(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadProfileCSV parses a CSV written by WriteCSV. Kernel names are returned
// alongside times so a profile can be used without its workload; equal
// names share one string.
func ReadProfileCSV(in io.Reader) (names []string, times []float64, err error) {
	total, _ := readerLen(in)
	fr := NewFastCSVReader(in)
	if total > 0 {
		// Pre-size from the line density of the first window, so a profile
		// in memory or in a regular file is decoded without regrowing the
		// slices. No row is shorter than ",,0\n", which bounds what blank
		// lines can make the estimate claim.
		window, _ := fr.br.Peek(min(total, fr.br.Size())) // a short window only lowers the estimate
		if len(window) > 0 {
			lines := int64(bytes.Count(window, []byte{'\n'}) + 1)
			rows := min(int(lines*int64(total)/int64(len(window))), total/4)
			names = make([]string, 0, rows)
			times = make([]float64, 0, rows)
		}
	}
	err = fr.Scan(func(name string, t float64) bool {
		names = append(names, name)
		times = append(times, t)
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	return names, times, nil
}
