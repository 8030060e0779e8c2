/**
 * @file
 * Diplomat generator tests: parse real ELF blobs out of the VFS,
 * match foreign Mach-O exports, and produce working diplomats.
 */

#include <gtest/gtest.h>

#include "base/logging.h"
#include "binfmt/elf.h"
#include "diplomat/generator.h"
#include "hw/device_profile.h"
#include "persona/persona.h"

namespace cider::diplomat {
namespace {

class GeneratorTest : public ::testing::Test
{
  protected:
    GeneratorTest()
        : kernel_(hw::DeviceProfile::nexus7()),
          mgr_(kernel_, ipc_, psynch_), generator_(libs_)
    {
        mgr_.install();
        kernel_.vfs().mkdirAll("/system/lib");

        // One domestic library with callable exports...
        binfmt::LibraryImage gl;
        gl.name = "libGLESv2.so";
        for (const char *sym : {"glClear", "glDrawArrays", "glFlush"})
            gl.exports.add(sym,
                           [](binfmt::UserEnv &,
                              std::vector<binfmt::Value> &) {
                               return binfmt::Value{std::int64_t{7}};
                           });
        libs_.add(std::move(gl));

        // ...mirrored by a genuine ELF .so blob in /system/lib.
        binfmt::ElfBuilder so(binfmt::ElfType::Dyn);
        so.segment(".text", 10)
            .exportSymbol("glClear")
            .exportSymbol("glDrawArrays")
            .exportSymbol("glFlush");
        kernel_.vfs().writeFile("/system/lib/libGLESv2.so", so.build());
        kernel::Lookup lk =
            kernel_.vfs().lookup("/system/lib/libGLESv2.so");
        lk.inode->imageTag = "libGLESv2.so";

        // A second .so that should not shadow the first.
        binfmt::ElfBuilder other(binfmt::ElfType::Dyn);
        other.segment(".text", 2).exportSymbol("unrelated");
        kernel_.vfs().writeFile("/system/lib/libother.so",
                                other.build());

        proc_ = &kernel_.createProcess("iapp", kernel::Persona::Ios);
        thread_ = &proc_->mainThread();
        scope_ = std::make_unique<kernel::ThreadScope>(*thread_);
        env_ = std::make_unique<binfmt::UserEnv>(
            binfmt::UserEnv{kernel_, *thread_, {}});
    }

    binfmt::MachOImage
    foreignDylib(std::vector<std::string> exports)
    {
        binfmt::MachOBuilder builder(binfmt::MachOFileType::Dylib);
        for (const std::string &sym : exports)
            builder.exportSymbol(sym);
        return builder.image();
    }

    kernel::Kernel kernel_;
    xnu::MachIpc ipc_;
    xnu::PsynchSubsystem psynch_;
    persona::PersonaManager mgr_;
    binfmt::LibraryRegistry libs_;
    DiplomatGenerator generator_;
    kernel::Process *proc_;
    kernel::Thread *thread_;
    std::unique_ptr<kernel::ThreadScope> scope_;
    std::unique_ptr<binfmt::UserEnv> env_;
};

TEST_F(GeneratorTest, MatchesExportsAndReportsLeftovers)
{
    GeneratorReport report;
    binfmt::SymbolTable table = generator_.generate(
        foreignDylib({"glClear", "glDrawArrays", "glExotic"}),
        kernel_.vfs(), "/system/lib", &report);

    EXPECT_EQ(table.size(), 2u);
    EXPECT_NE(table.find("glClear"), nullptr);
    EXPECT_EQ(table.find("glExotic"), nullptr);
    EXPECT_EQ(report.matched.size(), 2u);
    EXPECT_EQ(report.unmatched, std::vector<std::string>{"glExotic"});
    EXPECT_EQ(report.matched.at("glClear").first, "libGLESv2.so");
    EXPECT_EQ(report.librariesSearched.size(), 2u);
}

TEST_F(GeneratorTest, GeneratedDiplomatsActuallyArbitrate)
{
    binfmt::SymbolTable table = generator_.generate(
        foreignDylib({"glClear"}), kernel_.vfs(), "/system/lib");
    const binfmt::Symbol *diplomat = table.find("glClear");
    ASSERT_NE(diplomat, nullptr);

    ASSERT_EQ(thread_->persona(), kernel::Persona::Ios);
    std::vector<binfmt::Value> args;
    binfmt::Value rv = diplomat->fn(*env_, args);
    EXPECT_EQ(binfmt::valueI64(rv), 7);
    EXPECT_EQ(thread_->persona(), kernel::Persona::Ios);
    EXPECT_EQ(mgr_.personaSwitches(), 2u);
}

TEST_F(GeneratorTest, MissingDirectoryYieldsEmptyTable)
{
    setLogQuiet(true);
    GeneratorReport report;
    binfmt::SymbolTable table = generator_.generate(
        foreignDylib({"glClear"}), kernel_.vfs(), "/no/such/dir",
        &report);
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(report.unmatched.size(), 1u);
    setLogQuiet(false);
}

TEST_F(GeneratorTest, NonElfFilesInDirectoryIgnored)
{
    kernel_.vfs().writeFile("/system/lib/readme.txt",
                            {'h', 'i'});
    GeneratorReport report;
    generator_.generate(foreignDylib({"glClear"}), kernel_.vfs(),
                        "/system/lib", &report);
    for (const std::string &name : report.librariesSearched)
        EXPECT_NE(name, "readme.txt");
}

} // namespace
} // namespace cider::diplomat
