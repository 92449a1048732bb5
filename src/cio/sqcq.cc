#include "src/cio/sqcq.h"

#include "src/base/bits.h"

namespace cio {

bool L5QueueConfig::Valid() const {
  return ciobase::IsPowerOfTwo(sq_entries) && sq_entries >= 2 &&
         ciobase::IsPowerOfTwo(cq_entries) && cq_entries >= 2 &&
         pool_slots >= kSqMaxSegments && pool_slots <= (1u << 15) &&
         slot_size >= 256;
}

void EncodeSqe(const SqEntry& entry, ciobase::MutableByteSpan out) {
  uint8_t* p = out.data();
  p[0] = entry.op;
  p[1] = entry.seg_count;
  ciobase::StoreLe16(p + 2, 0);
  ciobase::StoreLe32(p + 4, entry.socket);
  ciobase::StoreLe64(p + 8, entry.user_data);
  for (size_t i = 0; i < kSqMaxSegments; ++i) {
    ciobase::StoreLe16(p + 16 + i * 6, entry.segs[i].slot);
    ciobase::StoreLe32(p + 18 + i * 6, entry.segs[i].len);
  }
}

SqEntry DecodeSqe(ciobase::ByteSpan in) {
  const uint8_t* p = in.data();
  SqEntry entry;
  entry.op = p[0];
  entry.seg_count = p[1] > kSqMaxSegments ? kSqMaxSegments : p[1];
  entry.socket = ciobase::LoadLe32(p + 4);
  entry.user_data = ciobase::LoadLe64(p + 8);
  for (size_t i = 0; i < kSqMaxSegments; ++i) {
    entry.segs[i].slot = ciobase::LoadLe16(p + 16 + i * 6);
    entry.segs[i].len = ciobase::LoadLe32(p + 18 + i * 6);
  }
  return entry;
}

void EncodeCqe(const CqEntry& entry, ciobase::MutableByteSpan out) {
  uint8_t* p = out.data();
  p[0] = entry.op;
  p[1] = entry.seg_count;
  ciobase::StoreLe16(p + 2, entry.code);
  ciobase::StoreLe32(p + 4, entry.result);
  ciobase::StoreLe64(p + 8, entry.user_data);
  ciobase::StoreLe32(p + 16, entry.epoch);
  ciobase::StoreLe32(p + 20, entry.socket);
  for (size_t i = 0; i < kSqMaxSegments; ++i) {
    ciobase::StoreLe32(p + 24 + i * 4, entry.seg_len[i]);
  }
  ciobase::StoreLe32(p + 56, entry.peer);
}

CqEntry DecodeCqe(ciobase::ByteSpan in) {
  const uint8_t* p = in.data();
  CqEntry entry;
  entry.op = p[0];
  entry.seg_count = p[1] > kSqMaxSegments ? kSqMaxSegments : p[1];
  entry.code = ciobase::LoadLe16(p + 2);
  entry.result = ciobase::LoadLe32(p + 4);
  entry.user_data = ciobase::LoadLe64(p + 8);
  entry.epoch = ciobase::LoadLe32(p + 16);
  entry.socket = ciobase::LoadLe32(p + 20);
  for (size_t i = 0; i < kSqMaxSegments; ++i) {
    entry.seg_len[i] = ciobase::LoadLe32(p + 24 + i * 4);
  }
  entry.peer = ciobase::LoadLe32(p + 56);
  return entry;
}

}  // namespace cio
