#ifndef MTDB_COMMON_TYPES_H_
#define MTDB_COMMON_TYPES_H_

#include <compare>
#include <cstdint>
#include <string>

namespace mtdb {

/// Column data types supported by the engine. DATE is stored as a day
/// number (days since 1970-01-01) but is a distinct logical type so the
/// mapping layer can route values into typed chunk columns.
enum class TypeId : uint8_t {
  kNull = 0,
  kBool,
  kInt32,
  kInt64,
  kDouble,
  kDate,
  kString,
};

const char* TypeName(TypeId type);

/// Parses a SQL type name ("INT", "BIGINT", "VARCHAR", "DATE", ...).
/// Returns kNull when unknown.
TypeId TypeFromName(const std::string& name);

/// True for types whose values are stored inline with fixed width.
bool IsFixedWidth(TypeId type);

/// Storage footprint in bytes for fixed-width types (0 for kString).
uint32_t FixedWidthOf(TypeId type);

/// Physical value-class used by generic (pivot/chunk) structures: the
/// paper groups columns into INTEGER / DATE / VARCHAR data columns; we
/// add DOUBLE for the CRM testbed's numeric measures.
enum class StorageClass : uint8_t {
  kIntLike = 0,
  kDoubleLike = 1,
  kDateLike = 2,
  kStringLike = 3,
};

inline constexpr int kNumStorageClasses = 4;

/// The physical column type generic structures use for a storage class.
TypeId PhysicalTypeOf(StorageClass cls);

StorageClass StorageClassOf(TypeId type);
const char* StorageClassName(StorageClass cls);

using TenantId = int32_t;
using TableId = int32_t;
using IndexId = int32_t;
using PageId = int32_t;

inline constexpr PageId kInvalidPageId = -1;

/// Record identifier: page + slot within the page.
struct Rid {
  PageId page_id = kInvalidPageId;
  uint16_t slot = 0;

  auto operator<=>(const Rid& other) const = default;
};

}  // namespace mtdb

#endif  // MTDB_COMMON_TYPES_H_
