package journal

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"reflect"
	"testing"
)

// FuzzJournalScan feeds arbitrary bytes after the magic to the log's
// readers. Neither Read nor Open may panic. Open must recover exactly
// the records Read finds and repair the file so that it reads back as
// those records with no torn bytes, and an Append after the repair must
// replay as those records plus the new one.
func FuzzJournalScan(f *testing.F) {
	var clean []byte
	for _, rec := range []Record{
		{Type: TypeEpoch, Epoch: 1},
		{Type: TypeJobAccepted, Job: "f1", Tenant: "acme", Experiment: "fig6",
			Params: json.RawMessage(`{"scale":0.25}`), Key: "k-render"},
		{Type: TypePointAssigned, Job: "f1", Index: 3, Key: "k-p3", Epoch: 1},
		{Type: TypePointFailed, Job: "f1", Index: 3, Error: "boom", Code: "panic",
			Repro: json.RawMessage(`{"seed":7}`)},
	} {
		var err error
		if clean, err = frame(clean, rec); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(clean)
	f.Add([]byte{})
	f.Add(clean[:5])            // torn header
	f.Add(clean[:len(clean)-3]) // torn payload
	for _, at := range []int{2, 6, 12, len(clean) - 1} {
		flipped := append([]byte(nil), clean...)
		flipped[at] ^= 0x40 // length, checksum or payload bit
		f.Add(flipped)
	}
	var hdr [8]byte
	garbage := []byte("{not json")
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(garbage)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(garbage))
	f.Add(append(append(append([]byte(nil), clean...), hdr[:]...), garbage...)) // checksummed non-JSON
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})                           // oversized length

	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		path := Path(dir)
		if err := os.WriteFile(path, append([]byte(Magic), tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		want, torn, err := Read(path)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		j, rep, err := Open(dir, nil)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer j.Close()
		if !reflect.DeepEqual(rep.Records, want) || rep.TruncatedBytes != torn {
			t.Fatalf("Open replayed %d records, %d torn bytes; Read found %d, %d",
				len(rep.Records), rep.TruncatedBytes, len(want), torn)
		}
		got, torn, err := Read(path)
		if err != nil || torn != 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("after repair Read = %d records, %d torn bytes, %v; want %d records, 0 torn",
				len(got), torn, err, len(want))
		}
		next := Record{Type: TypeJobMerged, Job: "f9", Key: "k-next"}
		if err := j.Append(next); err != nil {
			t.Fatalf("Append: %v", err)
		}
		got, torn, err = Read(path)
		if err != nil || torn != 0 || !reflect.DeepEqual(got, append(want, next)) {
			t.Fatalf("after Append Read = %d records, %d torn bytes, %v; want %d records, 0 torn",
				len(got), torn, err, len(want)+1)
		}
	})
}
