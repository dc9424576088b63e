/**
 * @file
 * Aligned-column table printer used by the bench harness to emit the
 * paper's tables and figure series in a reproducible text form.
 */

#ifndef GENESYS_COMMON_TABLE_HH
#define GENESYS_COMMON_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace genesys
{

/**
 * A simple text table: set headers, append rows of strings (helpers
 * format doubles in fixed or scientific notation), print aligned.
 */
class Table
{
  public:
    explicit Table(std::string title = "");

    void setHeader(std::vector<std::string> header);
    void addRow(std::vector<std::string> row);

    /** Format helpers. */
    static std::string num(double v, int precision = 3);
    static std::string sci(double v, int precision = 2);
    static std::string integer(long long v);

    /** Print with column alignment and a rule under the header. */
    void print(std::ostream &os) const;

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace genesys

#endif // GENESYS_COMMON_TABLE_HH
