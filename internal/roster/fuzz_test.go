package roster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

// allocated returns the bytes fn allocated, collected or not.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBound is what a parser may allocate for an n-byte file: a constant
// number of copies of it (lines, fields, decoded keys, the canonical
// re-encoding it is compared with) plus slack for the runtime and the fuzz
// worker.
func allocBound(n int) uint64 { return 64*uint64(n) + 1<<16 }

// rehash rewrites a trailing "check <sha256>\n" line to match the bytes
// before it. The self-hash would stop the fuzzer at the door; fixed up,
// mutations reach the line and field parsers behind it.
func rehash(data []byte) []byte {
	const tail = len("check ") + 2*sha256.Size + len("\n")
	body := len(data) - tail
	if body < 0 || !bytes.HasPrefix(data[body:], []byte("check ")) || data[len(data)-1] != '\n' {
		return data
	}
	sum := sha256.Sum256(data[:body])
	out := bytes.Clone(data)
	hex.Encode(out[body+len("check "):], sum[:])
	return out
}

// FuzzDecode: the roster file parser — the first thing a deployed node
// reads, from a path an operator typed — never panics, never allocates out
// of proportion to the file, accepts only the canonical bytes of what it
// returns, and what it returns survives its own encoding.
func FuzzDecode(f *testing.F) {
	fx, err := Generate(4, []string{"10.0.0.1:7001", "10.0.0.2:7001", "10.0.0.3:7001", ""}, nil)
	if err != nil {
		f.Fatal(err)
	}
	enc := fx.File.Encode()
	f.Add(enc)
	f.Add(enc[:len(enc)/2])
	f.Add(bytes.ToUpper(enc))
	f.Add(bytes.Replace(enc, []byte("member "), []byte("member  "), 1))
	f.Add([]byte(rosterHeader + "\ncheck \n"))
	dev, err := Dev(1)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(dev.File.Encode())

	f.Fuzz(func(t *testing.T, data []byte) {
		data = rehash(data)
		var (
			file *File
			err  error
		)
		if got, limit := allocated(func() { file, err = Decode(data) }), allocBound(len(data)); got > limit {
			t.Fatalf("Decode allocated %d bytes for a %d-byte file (bound %d)", got, len(data), limit)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(file.Encode(), data) {
			t.Fatal("Decode accepted bytes that are not the canonical encoding of its result")
		}
		again, err := Decode(file.Encode())
		if err != nil {
			t.Fatalf("Decode(Encode(f)): %v", err)
		}
		if again.Hash() != file.Hash() || again.N() != file.N() {
			t.Fatalf("round trip changed the roster: %d members hash %x, then %d members hash %x",
				file.N(), file.Hash(), again.N(), again.Hash())
		}
		if _, err := file.Roster(); err != nil {
			t.Fatalf("accepted roster does not bridge to the crypto layer: %v", err)
		}
	})
}

// FuzzDecodeKey: the key file parser never panics, never allocates out of
// proportion to the file, and accepts only the canonical bytes of a key
// whose public half is the one its seed derives.
func FuzzDecodeKey(f *testing.F) {
	k, err := GenerateKey(3, nil)
	if err != nil {
		f.Fatal(err)
	}
	enc := k.Encode()
	f.Add(enc)
	f.Add(enc[:len(enc)-10])
	f.Add(bytes.Replace(enc, []byte("server 3"), []byte("server 65535"), 1))
	f.Add(bytes.Replace(enc, []byte("server 3"), []byte("server 03"), 1))
	f.Add([]byte(keyHeader + "\n\n\n\ncheck \n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		data = rehash(data)
		var (
			key Key
			err error
		)
		if got, limit := allocated(func() { key, err = DecodeKey(data) }), allocBound(len(data)); got > limit {
			t.Fatalf("DecodeKey allocated %d bytes for a %d-byte file (bound %d)", got, len(data), limit)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(key.Encode(), data) {
			t.Fatal("DecodeKey accepted bytes that are not the canonical encoding of its result")
		}
		again, err := DecodeKey(key.Encode())
		if err != nil || again.ID != key.ID || !again.Pair.Public.Equal(key.Pair.Public) {
			t.Fatalf("round trip changed the key: s%d, then s%d (err %v)", key.ID, again.ID, err)
		}
	})
}
